//===- api/Infer.h - User-facing inference API -----------------*- C++ -*-===//
///
/// \file
/// The user-facing API, mirroring the Python interface of paper Fig. 2:
///
///   Infer Aug(augur::models::GMM);           // model source
///   Aug.setCompileOpt(Opts);                 // target cpu / gpu-sim
///   Aug.setUserSched("ESlice mu (*) Gibbs z");
///   Aug.compile({K, N, mu0, S0, pis, S}, {{"x", X}});
///   SampleSet S = Aug.sample(1000);
///
/// Compilation happens at call time against the actual argument shapes,
/// exactly as AugurV2 compiles at runtime.
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_API_INFER_H
#define AUGUR_API_INFER_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compile/Compiler.h"

namespace augur {

/// A set of posterior draws: for each requested parameter, one Value
/// per retained sample.
struct SampleSet {
  std::map<std::string, std::vector<Value>> Draws;
  std::vector<double> LogJoint; ///< log joint per retained sample
  /// Which chain produced this set (0 for single-chain sample()).
  int ChainId = 0;
  /// Sweeps replayed from a checkpoint before this set's first draw
  /// (0 for a fresh run). A resumed set holds only the *remaining*
  /// samples; draws emitted before the crash lived in the dead process.
  uint64_t ResumedSweeps = 0;
  /// Final acceptance rate per base update, keyed by the update's
  /// display name (e.g. "HMC(mu)"); filled after collection.
  std::map<std::string, double> AcceptRates;
  /// Final streaming convergence diagnostics per monitored variable
  /// (diag/ChainDiag.h), filled after collection when the program was
  /// compiled with CompileOptions::Diag enabled. R̂ is NaN while
  /// undefined (e.g. constant chains); ESS is clamped to [1, sweeps].
  std::map<std::string, double> Rhat;
  std::map<std::string, double> Ess;
  /// Vector-plan status per base update (display name key): 1 = the
  /// update's Gibbs procedure ran through a compiled vector plan
  /// (exec/VecKernels.h), 0 = interpreted/native-scalar, absent = the
  /// update has no Gibbs procedure. Filled after collection; the
  /// scalar-fallback tests assert this map to prove both SIMD settings
  /// produce the same SampleSet schema.
  std::map<std::string, int> VectorizedUpdates;

  size_t size() const { return LogJoint.size(); }

  /// Posterior mean of a real scalar parameter.
  double scalarMean(const std::string &Var) const;
};

/// Streaming sink invoked once per retained draw. \p Index is the
/// 0-based retained-draw index, \p Names the recorded parameter names,
/// \p Row one borrowed Value per name (valid only during the call — the
/// chain overwrites the state on the next sweep), \p LogJoint the log
/// joint when TrackLogJoint is set (0.0 otherwise). Returning an error
/// aborts collection with that status; the serving layer uses this to
/// enforce per-request deadlines and client disconnects.
using DrawSink = std::function<Status(
    uint64_t Index, const std::vector<std::string> &Names,
    const std::vector<const Value *> &Row, double LogJoint)>;

/// Options controlling sample collection.
struct SampleOptions {
  int NumSamples = 100;
  int BurnIn = 0;
  int Thin = 1;
  /// Parameters to record; empty records all model parameters.
  std::vector<std::string> Record;
  /// Per-draw streaming sink (see DrawSink); null disables streaming.
  DrawSink OnDraw;
  /// Accumulate retained draws into the returned SampleSet (default).
  /// A streaming caller that only consumes OnDraw can turn this off so
  /// a long-running request holds O(1) draws in memory instead of all
  /// of them.
  bool KeepDraws = true;
  /// Record the log joint at every retained draw (costs one likelihood
  /// evaluation per sample).
  bool TrackLogJoint = false;
  /// Fault tolerance (DESIGN.md section 12). Non-empty enables
  /// checkpointing: each chain snapshots its full state (latents, RNG,
  /// step sizes, guard/accept counters) to `<dir>/chain<k>.agck`,
  /// crash-safely. A later run with the same model, options, and seed
  /// finds the snapshot, resumes, and reproduces the remaining sample
  /// stream bit-identically. The directory must already exist.
  std::string CheckpointDir;
  /// Sweeps between periodic checkpoint writes; 0 writes only the
  /// final checkpoint (resume then restarts an interrupted run from
  /// scratch, but a *completed* run is still skippable).
  int CheckpointEvery = 0;
  /// Resume from an existing valid checkpoint in CheckpointDir
  /// (default). False ignores and overwrites any snapshot present.
  bool Resume = true;
};

/// The inference object.
class Infer {
public:
  explicit Infer(std::string ModelSource)
      : Source(std::move(ModelSource)) {}

  void setCompileOpt(CompileOptions O) { Opts = std::move(O); }
  void setUserSched(std::string Sched) { Opts.UserSchedule = std::move(Sched); }

  /// Compiles the model against concrete arguments and data into one
  /// artifact, and builds chain 0 of it (seed CompileOptions::Seed),
  /// initialized from the prior.
  Status compile(std::vector<Value> HyperArgs, Env Data);

  /// Draws posterior samples (compile() must have succeeded).
  Result<SampleSet> sample(const SampleOptions &SO);
  Result<SampleSet> sample(int NumSamples) {
    SampleOptions SO;
    SO.NumSamples = NumSamples;
    return sample(SO);
  }

  /// Runs CompileOptions::Par.Chains independent chains of the compiled
  /// artifact and returns one SampleSet per chain, ordered by chain
  /// index. Chain c is built from the artifact with seed
  /// philoxMix(Opts.Seed, c) — no recompilation — so the result set is
  /// a pure function of the options, independent of thread count and
  /// of whether the chains run sequentially or over the pool (they run
  /// concurrently when Par.NumThreads != 1). compile() must have
  /// succeeded.
  Result<std::vector<SampleSet>> sampleChains(const SampleOptions &SO);

  /// The chain compile() built (valid after compile()).
  MCMCProgram &program() {
    assert(Prog && "compile() has not succeeded");
    return *Prog;
  }
  /// The compiled artifact every chain shares (valid after compile()).
  const std::shared_ptr<const Artifact> &artifact() const { return Art; }

private:
  std::string Source;
  CompileOptions Opts;
  std::shared_ptr<const Artifact> Art;
  std::unique_ptr<MCMCProgram> Prog;
};

/// Collects samples from an initialized chain: the sample loop shared by
/// Infer::sample, Infer::sampleChains and the serve daemon, so a served
/// stream is bit-identical to a direct one with the same options. The
/// chain's artifact source and seed key the checkpoint fingerprint; its
/// chain index names the checkpoint file and the returned SampleSet.
Result<SampleSet> collectSamples(MCMCProgram &Chain, const SampleOptions &SO);

} // namespace augur

#endif // AUGUR_API_INFER_H
