//===- compile/Compiler.h - The AugurV2 compiler driver --------*- C++ -*-===//
///
/// \file
/// The end-to-end compilation pipeline (paper Fig. 3): parse ->
/// typecheck against the actual argument types (AugurV2 compiles at
/// runtime) -> Density IL -> Kernel IL (user schedule or heuristic) ->
/// Low++ procedures per base update -> execution engine. The result is
/// an Artifact: the immutable compiled algorithm, built once and shared
/// by any number of chains. Each MCMCProgram is one chain of it — the
/// per-chain state (environment, RNG, factor cache, diagnostics,
/// adaptation) held beside the shared artifact.
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_COMPILE_COMPILER_H
#define AUGUR_COMPILE_COMPILER_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "density/DepGraph.h"
#include "density/Frontend.h"
#include "diag/ChainDiag.h"
#include "exec/FactorCache.h"
#include "exec/GpuSim.h"
#include "kernel/Schedule.h"
#include "lang/Parser.h"
#include "math/Simd.h"
#include "mcmc/Drivers.h"
#include "parallel/ThreadPool.h"
#include "telemetry/Telemetry.h"

namespace augur {

/// Compilation options (the setCompileOpt of the paper's Fig. 2).
struct CompileOptions {
  enum class Target {
    Cpu,    ///< interpret Low++ on the host
    GpuSim, ///< execute on the SIMT device simulator (modeled time)
  };
  Target Tgt = Target::Cpu;
  /// Cpu target only: emit C, compile with the host compiler, and
  /// dlopen (procedures outside the native subset are interpreted).
  bool NativeCpu = false;
  /// User MCMC schedule, e.g. "ESlice mu (*) Gibbs z"; empty selects
  /// the heuristic of Section 4.2.
  std::string UserSchedule;
  uint64_t Seed = 0xA594;
  HmcSettings Hmc;
  /// Backend parallelization options (GpuSim target; also used by the
  /// ablation benches).
  BlkOptions Blk;
  /// Device model for the GpuSim target.
  DeviceModel Device;
  /// Cpu target only: the parallel runtime (see DESIGN.md "Parallel
  /// runtime"). NumThreads == 1 (default) keeps the legacy sequential
  /// execution; any other value runs Par/AtmPar loops on the
  /// work-stealing pool with per-iteration RNG streams, making samples
  /// independent of the pool width.
  ParallelConfig Par;
  /// Cpu target, pooled mode only: per-site reduction policy for
  /// AtmPar accumulation loops (DESIGN.md section 16). Auto runs the
  /// compile-time contention estimator (pool width x iterations /
  /// distinct write locations) per site; Atomic keeps in-place atomic
  /// accumulation everywhere; MapReduce privatizes every legal site
  /// into per-block partials with a pinned tree fold. All three
  /// policies produce the same samples (map-reduce changes only the
  /// floating-point reduction order of likelihood/gradient sums, and
  /// pins it). The env var AUGUR_REDUCE (auto/atomic/mapreduce)
  /// overrides this field.
  ReduceMode Reduce = ReduceMode::Auto;
  /// Inference telemetry (DESIGN.md "Telemetry"). Disabled by default;
  /// the env var AUGUR_TELEMETRY=1 force-enables regardless of this
  /// field. Telemetry never consumes RNG, so enabling it leaves the
  /// sample stream bit-identical.
  TelemetryConfig Telemetry;
  /// Cpu target only: maintain the running log joint incrementally via
  /// the factor-contribution cache (exec/FactorCache.h) instead of
  /// re-running ll_joint. Sample streams are bit-identical either way
  /// (the cache never consumes RNG and the generated procedures are the
  /// same in both modes). The env var AUGUR_INCREMENTAL_FC overrides
  /// this field: "0" disables, any other value enables.
  bool IncrementalFC = true;
  /// Numerical guardrails (DESIGN.md "Fault tolerance"): per-update
  /// finite checks with quarantine, step-size backoff for diverged
  /// gradient updates, and the HMC -> Slice -> MH fallback ladder.
  /// The env var AUGUR_GUARDRAILS overrides individual knobs. On a
  /// healthy model guardrails never consume RNG, so enabling them
  /// leaves the sample stream bit-identical.
  robust::GuardrailOptions Guard;
  /// Fault-injection spec for robustness tests (robust/FaultInject.h
  /// grammar); installed into the process-wide injector at compile
  /// time. The env var AUGUR_FAULT_SPEC wins over this field. Empty
  /// (the default) disables injection.
  std::string FaultSpec;
  /// Vectorized sampler hot path (DESIGN.md section 15): compiled proc
  /// plans on the interpreter/native engines plus host-vectorized
  /// emitted C. Auto (the default) arms sequential CPU programs unless
  /// a fault-injection spec is active; AUGUR_SIMD=0/1 overrides Auto.
  /// With the alias table disabled the vector path replays the scalar
  /// sample stream bit-identically (see exec/VecKernels.h).
  simd::SimdMode Simd = simd::SimdMode::Auto;
  /// Streaming convergence diagnostics (DESIGN.md "Observability
  /// plane"): per-variable split-R̂/ESS accumulated every sweep and
  /// published as chain<k>/diag/* gauges, plus divergence/guard rollup
  /// counters. Off by default — no accumulator is allocated and step()
  /// pays nothing. The env var AUGUR_DIAG overrides ("0" disables,
  /// anything else enables). Diagnostics never consume RNG and never
  /// write model state, so the sample stream is bit-identical on/off.
  diag::DiagOptions Diag;
};

class NativeModules;

/// The immutable result of compiling one (model, query) pair: everything
/// the chains of it share. Built once by Compiler::compile and held by
/// shared_ptr<const Artifact>; chains keep their state beside it.
struct Artifact {
  std::string Source; ///< model source (keys checkpoint fingerprints)
  /// Env overrides and the Simd / IncrementalFC policies resolved.
  CompileOptions Opts;
  DensityModel DM;
  KernelSchedule Sched;
  std::unique_ptr<DepGraph> DG; ///< CPU target only
  /// The Low++ procedures by name, after reduce planning.
  std::map<std::string, LowppProc> Procs;
  /// One template per base update: procedure names, transforms, and
  /// the factor-cache contract. Stats, guard state and telemetry keys
  /// are filled in per chain.
  std::vector<CompiledUpdate> Updates;
  /// The environment every chain starts from: hyper-parameters, data,
  /// and the factor slice buffers.
  Env Base;
  /// NativeCpu only: the update procedures, built by host cc at compile
  /// time; ll_joint and llfac_* build on first use.
  std::shared_ptr<NativeModules> Native;
};

/// One chain of a compiled artifact: a complete, runnable composite
/// MCMC algorithm. Owns the per-chain state — environment, RNG,
/// interpreter and vector plans, factor cache, diagnostics, per-update
/// adaptation — and shares everything else with the other chains of
/// its artifact.
class MCMCProgram {
public:
  /// Builds chain \p ChainIndex of \p A with RNG seed \p Seed. No
  /// compilation happens, and compilation consumes no RNG, so the chain
  /// is exactly what compiling afresh with that seed would give.
  MCMCProgram(std::shared_ptr<const Artifact> A, uint64_t Seed,
              int ChainIndex);

  /// Initializes the parameter state by forward-sampling the priors.
  /// Must be called before step().
  Status init();

  /// Runs one full sweep: every base update once, in schedule order.
  Status step();

  /// Log joint density of the current state. With the incremental
  /// factor cache attached this re-evaluates only factors marked dirty
  /// since the last call; otherwise it runs the compiled ll_joint
  /// procedure.
  double logJoint();

  /// Marks every cached factor stale. Must be called after any state
  /// mutation that bypasses the compiled updates (e.g. writing into
  /// state() directly, or re-sampling data in place).
  void invalidateCache();

  /// The incremental log-joint cache, or nullptr when disabled (GpuSim
  /// target, or IncrementalFC off).
  FactorCache *factorCache() { return Cache.get(); }

  /// The factor dependency graph (CPU target), or nullptr.
  const DepGraph *depGraph() const { return Art->DG.get(); }

  /// The streaming convergence diagnostics of this chain, or nullptr
  /// when CompileOptions::Diag left them disabled.
  diag::ChainDiag *chainDiag() { return Diag.get(); }

  Env &state() { return Eng->env(); }
  Engine &engine() { return *Eng; }
  const Artifact &artifact() const { return *Art; }
  const DensityModel &densityModel() const { return Art->DM; }
  const KernelSchedule &schedule() const { return Art->Sched; }
  std::vector<CompiledUpdate> &updates() { return Updates; }
  uint64_t seed() const { return Seed; }
  int chainIndex() const { return ChainIndex; }

private:
  std::shared_ptr<const Artifact> Art;
  uint64_t Seed;
  int ChainIndex;
  std::unique_ptr<Engine> Eng;
  std::vector<CompiledUpdate> Updates;
  std::unique_ptr<FactorCache> Cache;///< CPU target + IncrementalFC
  std::string SweepLJKey;    ///< "chain<k>/sweep/log_joint"
  std::string SweepCountKey; ///< "chain<k>/sweep/count"
  std::string FCEvalKey;     ///< "chain<k>/fc/factors_evaluated"
  std::string FCHitsKey;     ///< "chain<k>/fc/cache_hits"
  std::string FCBypKey;      ///< "chain<k>/fc/byproduct_refreshes"
  std::string FCMaintKey;    ///< "chain<k>/fc/maint_ns"
  // Last-flushed cache statistics (step() reports per-sweep deltas).
  uint64_t FCLastEval = 0, FCLastHits = 0, FCLastByp = 0, FCLastMaint = 0;
  std::unique_ptr<diag::ChainDiag> Diag; ///< CompileOptions::Diag only
  std::string DiagDivKey;   ///< "chain<k>/diag/divergences"
  std::string DiagRetryKey; ///< "chain<k>/diag/guard_retries"
  std::string DiagFallKey;  ///< "chain<k>/diag/guard_fallbacks"
  std::string DiagQuarKey;  ///< "chain<k>/diag/guard_quarantines"
  // Last-flushed rollup totals (step() reports per-sweep deltas).
  uint64_t DiagLastDiv = 0, DiagLastRetry = 0, DiagLastFall = 0,
           DiagLastQuar = 0;
};

/// The compiler entry point.
class Compiler {
public:
  /// Compiles \p ModelSrc given the hyper-parameter values \p HyperArgs
  /// (in the order of the model's formals) and the observed \p Data
  /// (by variable name). Mirrors aug.compile(args...)(data) of Fig. 2.
  static Result<std::shared_ptr<const Artifact>>
  compile(const std::string &ModelSrc, const CompileOptions &Opts,
          const std::vector<Value> &HyperArgs, const Env &Data);
};

} // namespace augur

#endif // AUGUR_COMPILE_COMPILER_H
