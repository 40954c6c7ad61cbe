//===- perfbench/src/InProcess.cpp - gibbs-lda, hmc-hlr-* -----*- C++ -*-===//
///
/// \file
/// The in-process workloads. A run is a sequence of jobs, each what a
/// library user does to get a posterior: construct an Infer, compile,
/// and draw a fixed number of samples per chain. Every job is timed
/// from outside the api through SampleOptions::OnDraw timestamps, so
/// set-up (compile, init, the lazy host cc) and per-draw sweep times
/// come from the same clock. Jobs in one run use the same seed, so they
/// repeat the same work and their spread is the host's.
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>

#include "Common.h"
#include "Inputs.h"
#include "api/Infer.h"
#include "cgen/Native.h"
#include "models/PaperModels.h"
#include "robust/Checkpoint.h"
#include "serve/Protocol.h"
#include "support/PhiloxRNG.h"

using namespace augur;

namespace perfbench {
namespace {

/// One in-process workload.
struct Spec {
  const char *Source = nullptr;
  std::vector<Value> Args;
  Env Data;
  CompileOptions CO;
  bool MultiChain = false;   ///< sampleChains (else Infer::sample)
  int DrawsPerChain = 0;     ///< job size
  int CheckpointEvery = 0;   ///< sweeps between checkpoints; 0 = off
  bool TrackLogJoint = false;
  double LatencyLimitMs = 0; ///< job latency limit (slo_met_frac)
  int CheckDraws = 0;        ///< size of the unmeasured check job
  int RefDraws = 2;          ///< leading draws checked against the
                             ///< scalar tree-walker
  int BurnDraws = 0;         ///< check-job draws the posterior skips
  std::string PosteriorVar;  ///< parameter the posterior check reads
};

/// What one chain delivered during a job.
struct ChainLine {
  double First = 0.0, Last = 0.0;
  uint64_t N = 0;
  Dist Gaps; ///< ms between consecutive draws
  std::vector<std::vector<std::string>> Head; ///< leading draws, encoded
  std::vector<double> PostSum; ///< sum of Spec::PosteriorVar, kept draws
  uint64_t PostN = 0;
};

struct Job {
  double T0 = 0.0, TEnd = 0.0;
  std::vector<ChainLine> Chains; ///< in order of first draw
  std::string Error;
  std::unique_ptr<Infer> Aug;

  double firstDraw() const {
    double F = Chains.empty() ? TEnd : Chains[0].First;
    for (const auto &C : Chains)
      F = std::min(F, C.First);
    return F;
  }
  double lastDraw() const {
    double L = T0;
    for (const auto &C : Chains)
      L = std::max(L, C.Last);
    return L;
  }
  /// Measure of the union of the chains' [first draw, last draw].
  double sampling() const {
    std::vector<std::pair<double, double>> Iv;
    for (const auto &C : Chains)
      Iv.push_back({C.First, C.Last});
    std::sort(Iv.begin(), Iv.end());
    double Total = 0.0, Lo = 0.0, Hi = -1e300;
    for (const auto &[A, B] : Iv) {
      if (A > Hi) {
        if (Hi > Lo)
          Total += Hi - Lo;
        Lo = A;
        Hi = B;
      } else {
        Hi = std::max(Hi, B);
      }
    }
    if (Hi > Lo)
      Total += Hi - Lo;
    return Total;
  }
  /// Wall time before sampling: the part of the job before its last
  /// draw that no chain spent between its first and last draw. For
  /// concurrent chains this is the interval up to the first draws; for
  /// chains run one after another it also takes each later chain's
  /// start-up gap.
  double setup() const { return (lastDraw() - T0) - sampling(); }
  uint64_t draws() const {
    uint64_t D = 0;
    for (const auto &C : Chains)
      D += C.N;
    return D;
  }
  double overlap() const {
    double Span = lastDraw() - firstDraw(), Sum = 0.0;
    for (const auto &C : Chains)
      Sum += C.Last - C.First;
    return Span > 0 ? Sum / Span : 1.0;
  }
};

std::string encoded(const Value &V) { return serve::encodeValue(V).dump(); }

/// The flat payload of a real-vector parameter (empty otherwise).
std::vector<double> flatReals(const Value &V) {
  return V.isRealVec() ? V.realVec().flat() : std::vector<double>();
}

/// Runs one job: fresh Infer, compile, sample. \p CkptDir non-empty
/// turns on checkpointing into that (fresh) directory.
Job runJob(const Spec &S, const CompileOptions &CO, int Draws,
           const std::string &CkptDir, int HeadDraws) {
  Job J;
  std::mutex Mu;
  std::map<const void *, size_t> ChainOf;
  long PostIdx = -2;
  SampleOptions SO;
  SO.NumSamples = Draws;
  SO.TrackLogJoint = S.TrackLogJoint;
  SO.KeepDraws = false;
  if (!CkptDir.empty()) {
    std::filesystem::create_directories(CkptDir);
    SO.CheckpointDir = CkptDir;
    SO.CheckpointEvery = S.CheckpointEvery;
    SO.Resume = false; // a leftover snapshot must never skip the run
  }
  SO.OnDraw = [&](uint64_t Index, const std::vector<std::string> &Names,
                  const std::vector<const Value *> &Row,
                  double) -> Status {
    double T = nowSec();
    std::lock_guard<std::mutex> Lock(Mu);
    // Each chain samples into its own program state, so the address of
    // its first recorded value identifies the chain.
    const void *Key = Row.empty() ? nullptr : Row[0];
    auto It = ChainOf.find(Key);
    if (It == ChainOf.end()) {
      It = ChainOf.emplace(Key, J.Chains.size()).first;
      J.Chains.emplace_back();
      J.Chains.back().First = T;
    }
    ChainLine &C = J.Chains[It->second];
    if (C.N > 0)
      C.Gaps.add((T - C.Last) * 1e3);
    C.Last = T;
    ++C.N;
    if (int(C.Head.size()) < HeadDraws) {
      std::vector<std::string> Enc;
      for (const Value *V : Row)
        Enc.push_back(encoded(*V));
      C.Head.push_back(std::move(Enc));
    }
    if (PostIdx == -2) {
      auto P = std::find(Names.begin(), Names.end(), S.PosteriorVar);
      PostIdx = P == Names.end() ? -1 : long(P - Names.begin());
    }
    if (PostIdx >= 0 && int64_t(Index) >= S.BurnDraws) {
      std::vector<double> F = flatReals(*Row[size_t(PostIdx)]);
      if (C.PostSum.empty())
        C.PostSum.assign(F.size(), 0.0);
      for (size_t I = 0; I < F.size() && I < C.PostSum.size(); ++I)
        C.PostSum[I] += F[I];
      ++C.PostN;
    }
    return Status::success();
  };

  J.T0 = nowSec();
  J.Aug = std::make_unique<Infer>(S.Source);
  J.Aug->setCompileOpt(CO);
  Status St = J.Aug->compile(S.Args, S.Data);
  if (!St.ok()) {
    J.Error = "compile: " + St.message();
  } else if (S.MultiChain) {
    Result<std::vector<SampleSet>> R = J.Aug->sampleChains(SO);
    if (!R.ok())
      J.Error = "sampleChains: " + R.message();
  } else {
    Result<SampleSet> R = J.Aug->sample(SO);
    if (!R.ok())
      J.Error = "sample: " + R.message();
  }
  J.TEnd = nowSec();
  int Chains = S.MultiChain ? std::max(1, CO.Par.Chains) : 1;
  if (J.Error.empty() && int(J.Chains.size()) != Chains)
    J.Error = "expected draws from " + std::to_string(Chains) + " chains";
  for (const auto &C : J.Chains)
    if (J.Error.empty() && C.N != uint64_t(Draws))
      J.Error = "a chain delivered " + std::to_string(C.N) + " of " +
                std::to_string(Draws) + " draws";
  return J;
}

/// The chain-state snapshot robust::writeCheckpoint is timed on: every
/// parameter slot, the RNG words, and per-update step size and
/// counters, as sampling checkpoints hold them.
robust::ChainCheckpoint snapshot(MCMCProgram &P) {
  robust::ChainCheckpoint CP;
  CP.RngWords = P.engine().rng().saveState();
  for (const auto &Name : P.densityModel().TM.M.paramNames()) {
    auto It = P.state().find(Name);
    if (It != P.state().end())
      CP.Slots.emplace_back(Name, It->second);
  }
  for (size_t I = 0; I < P.updates().size(); ++I) {
    const CompiledUpdate &CU = P.updates()[I];
    std::string Pre = "u" + std::to_string(I) + "/";
    CP.Scalars.emplace_back(Pre + "hmc_step", CU.U.Hmc.StepSize);
    CP.Counters.emplace_back(Pre + "proposed", CU.Stats.Proposed);
    CP.Counters.emplace_back(Pre + "accepted", CU.Stats.Accepted);
    uint64_t W[robust::GuardState::NumWords];
    CU.Guard.toWords(W);
    for (int K = 0; K < robust::GuardState::NumWords; ++K)
      CP.Counters.emplace_back(Pre + "guard" + std::to_string(K), W[K]);
  }
  return CP;
}

/// Per-layer totals of traced jobs, by name, read from the recorder
/// and from the job's compiled program.
using Layers = std::map<std::string, double>;

Layers readLayers(Job &J, const Options &O, size_t CcDirs) {
  Layers L;
  Recorder &Rec = Recorder::global();
  std::vector<TraceEvent> Ev = Rec.traceEvents();
  std::map<std::string, uint64_t> Cn = Rec.counters();
  SpanTotals Total = spanTotals(Ev, "compile/total");
  L["compile_calls"] = double(Total.Count);
  L["compile_ms"] = Total.Ms;
  for (const char *Phase :
       {"frontend", "density", "kernel", "depgraph", "lowpp", "reduce"})
    L[Phase] = spanTotals(Ev, std::string("compile/") + Phase).Ms;
  L["cc_ms"] = spanTotalsPrefix(Ev, "compile/cgen/").Ms;
  L["cc_calls"] = double(CcDirs);
  L["sweeps"] = double(counterSum(Cn, "/sweep/count"));
  L["fc_maint_ms"] = double(counterSum(Cn, "/fc/maint_ns")) / 1e6;
  L["fc_hits"] = double(counterSum(Cn, "/fc/cache_hits"));
  L["fc_evaluated"] = double(counterSum(Cn, "/fc/factors_evaluated"));

  // Executor labels come from the job's own compiled program, which
  // makes the same plan decisions as its chains. On the native backend
  // procs compile lazily, so the program runs one sweep first (after
  // the job's host-cc calls were counted).
  MCMCProgram &P = J.Aug->program();
  auto *NE = dynamic_cast<NativeEngine *>(&P.engine());
  if (NE)
    (void)P.step();
  std::map<std::string, std::string> Exec;
  for (const auto &CU : P.updates()) {
    Exec[updateDisplayName(CU.U)] = executorOf(P, CU);
    if (!NE)
      continue;
    for (const std::string *Proc : {&CU.GibbsProc, &CU.LLProc, &CU.GradProc}) {
      if (Proc->empty())
        continue;
      if (NE->isNative(*Proc)) {
        ++L["native_procs"];
      } else {
        ++L["fallback_procs"];
        std::printf("fallback %s: %s\n", Proc->c_str(),
                    NE->fallbackReason(*Proc).c_str());
      }
    }
  }
  for (const auto &[Name, V] : executorSplit(Ev, Exec))
    L[Name] += V;

  // Checkpoint write cost, timed around the call on this job's state.
  std::string Dir = O.WorkDir + "/ckpt-probe";
  std::filesystem::create_directories(Dir);
  std::string Path = robust::checkpointPath(Dir, 0);
  robust::ChainCheckpoint CP = snapshot(P);
  Dist Ms;
  for (int I = 0; I < (O.Tiny ? 3 : 15); ++I) {
    double T = nowSec();
    Status St = robust::writeCheckpoint(Path, CP);
    Ms.add((nowSec() - T) * 1e3);
    if (!St.ok())
      std::printf("checkpoint write failed: %s\n", St.message().c_str());
  }
  L["ckpt_ms"] = Ms.median();
  std::error_code EC;
  L["ckpt_bytes"] = double(std::filesystem::file_size(Path, EC));
  return L;
}

/// The leading draws of every chain must match the scalar tree-walker
/// (vector plans off, one thread, interpreter backend) with the same
/// seed. Chains are compared as a set: concurrent chains reach OnDraw
/// in no fixed order.
void streamCheck(const Spec &S, const Job &Measured, const Options &O,
                 Report &R) {
  CompileOptions Ref = S.CO;
  Ref.NativeCpu = false;
  Ref.Simd = simd::SimdMode::Off;
  Ref.Par.NumThreads = 1;
  if (O.InjectMismatch)
    Ref.Seed = philoxMix(Ref.Seed, 0xBAD);
  Spec RS = S;
  RS.TrackLogJoint = false;
  Job RJ = runJob(RS, Ref, S.RefDraws, "", S.RefDraws);
  if (!RJ.Error.empty()) {
    R.check(false, "scalar reference run: " + RJ.Error);
    return;
  }
  std::vector<bool> Used(RJ.Chains.size(), false);
  size_t Matched = 0;
  for (const auto &C : Measured.Chains)
    for (size_t K = 0; K < RJ.Chains.size(); ++K)
      if (!Used[K] && RJ.Chains[K].Head == C.Head) {
        Used[K] = true;
        ++Matched;
        break;
      }
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "first %d draws of %zu/%zu chains bit-identical to the "
                "scalar tree-walker",
                S.RefDraws, Matched, Measured.Chains.size());
  R.check(Matched == Measured.Chains.size() && !Measured.Chains.empty(),
          Buf);
}

/// Per-chain posterior means of Spec::PosteriorVar over a job's kept
/// draws.
using ChainMeans = std::vector<std::vector<double>>;

/// Runs the workload and reports. First an unmeasured check job of
/// Spec::CheckDraws per chain: it warms the process up (the first job in
/// a process runs up to 25% slower, a cost a long-lived caller pays
/// once), its leading draws are checked against the scalar tree-walker,
/// and its per-chain posterior means go to \p Check, the workload's
/// compiler-independent check. Then the timed jobs, smaller so a run
/// holds many of them; each must reproduce the check job's leading
/// draws, since every job uses the same seed.
void runWorkload(const Spec &S, const Options &O, Report &R,
                 const std::function<void(const ChainMeans &)> &Check) {
  clearDir(O.NativeDir);
  Job First = runJob(S, S.CO, S.CheckDraws, "", S.RefDraws);
  clearDir(O.NativeDir);
  std::printf("check job: %.3f s%s\n", First.TEnd - First.T0,
              First.Error.empty() ? "" : (", " + First.Error).c_str());
  ++R.Attempted;
  if (!First.Error.empty()) {
    ++R.Failed;
    R.check(false, "the check job completes");
    return;
  }
  First.Aug.reset();

  int MinJobs = O.Tiny ? 1 : 5;
  if (O.Trace)
    MinJobs = 2; // one untraced and one traced job at least
  std::vector<Job> Jobs;
  Layers Sum;
  int Traced = 0;
  size_t SameHead = 0;
  Dist UntracedGaps, TracedGaps;
  double Start = nowSec();
  while (int(Jobs.size()) < MinJobs || nowSec() - Start < O.Seconds) {
    int Idx = int(Jobs.size());
    bool TraceJob = O.Trace && Idx % 2 == 1;
    setTracing(TraceJob);
    std::string Ckpt = S.CheckpointEvery > 0
                           ? O.WorkDir + "/ckpt-" + std::to_string(Idx)
                           : std::string();
    Job J = runJob(S, S.CO, S.DrawsPerChain, Ckpt, S.RefDraws);
    ++R.Attempted;
    size_t CcDirs = countEntries(O.NativeDir);
    if (!J.Error.empty()) {
      ++R.Failed;
      std::printf("job %d failed: %s\n", Idx, J.Error.c_str());
      setTracing(false);
      break;
    }
    for (auto &C : J.Chains) {
      (TraceJob ? TracedGaps : UntracedGaps).append(C.Gaps);
      for (const auto &F : First.Chains)
        if (F.Head == C.Head) {
          ++SameHead;
          break;
        }
      C.Head.clear(); // encoded draws are large (LDA: every token's topic)
    }
    if (TraceJob) {
      for (const auto &[Name, V] : readLayers(J, O, CcDirs))
        Sum[Name] += V;
      ++Traced;
    }
    setTracing(false);
    clearDir(O.NativeDir);
    if (!Ckpt.empty())
      std::filesystem::remove_all(Ckpt);
    std::printf("job %d: %.3f s, set-up %.3f s, %llu draws, %zu chains\n",
                Idx, J.TEnd - J.T0, J.setup(),
                (unsigned long long)J.draws(), J.Chains.size());
    J.Aug.reset();
    Jobs.push_back(std::move(J));
  }
  double RssMb = peakRssMb();
  if (R.Failed > 0 || Jobs.empty()) {
    R.check(false, "every job completes");
    return;
  }

  streamCheck(S, First, O, R);
  size_t JobChains = 0;
  for (const auto &J : Jobs)
    JobChains += J.Chains.size();
  R.check(SameHead == JobChains,
          std::to_string(SameHead) + "/" + std::to_string(JobChains) +
              " timed chains reproduce the check job's leading draws");
  ChainMeans Means;
  for (const auto &C : First.Chains) {
    Means.push_back(C.PostSum);
    for (double &V : Means.back())
      V /= double(std::max<uint64_t>(1, C.PostN));
  }
  Check(Means);

  // End-to-end metrics over the untraced jobs. Every job repeats the same
  // work, so jobs differ only by how much the shared host disturbed them
  // (its speed moves in episodes of seconds to minutes, and disturbance
  // only ever adds time): the time metrics come from the quieter half of
  // the untraced jobs, ranked by wall time. Ratios count every job.
  std::vector<const Job *> Untraced;
  for (size_t I = 0; I < Jobs.size(); ++I)
    if (!O.Trace || I % 2 == 0)
      Untraced.push_back(&Jobs[I]);
  std::vector<const Job *> Quiet = Untraced;
  std::stable_sort(Quiet.begin(), Quiet.end(), [](const Job *A, const Job *B) {
    return A->TEnd - A->T0 < B->TEnd - B->T0;
  });
  Quiet.resize((Quiet.size() + 1) / 2);
  Dist Setup, Gaps, Latency, Ttfd, Overlap;
  double Draws = 0, SamplingSecs = 0, QuietSecs = 0;
  for (const Job *J : Quiet) {
    Setup.add(J->setup());
    Latency.add((J->TEnd - J->T0) * 1e3);
    Ttfd.add((J->firstDraw() - J->T0) * 1e3);
    for (const auto &C : J->Chains) {
      Gaps.append(C.Gaps);
      Draws += double(C.N - 1);
    }
    SamplingSecs += J->sampling();
    QuietSecs += J->TEnd - J->T0;
  }
  int Within = 0;
  for (const Job *J : Untraced) {
    Overlap.add(J->overlap());
    Within += (J->TEnd - J->T0) * 1e3 <= S.LatencyLimitMs ? 1 : 0;
  }
  if (!O.Trace) {
    std::string Of = " of the quieter " + std::to_string(Quiet.size()) +
                     " of " + std::to_string(Untraced.size()) + " jobs";
    R.endToEnd("setup_s", "s", Setup.median(), "median" + Of);
    R.endToEnd("sweep_ms_p50", "ms", Gaps.median(),
               std::to_string(Gaps.size()) + " gaps" + Of);
    R.tail("sweep_ms_tail", Gaps);
    R.endToEnd("draws_per_s", "1/s",
               SamplingSecs > 0 ? Draws / SamplingSecs : 0.0);
    R.endToEnd("latency_p50_ms", "ms", Latency.median(),
               "job latency" + Of);
    R.tail("latency_tail_ms", Latency);
    R.endToEnd("ttfd_p50_ms", "ms", Ttfd.median());
    R.endToEnd("slo_met_frac", "ratio",
               double(Within) / double(Untraced.size()),
               "jobs within " + std::to_string(int(S.LatencyLimitMs)) +
                   " ms, all jobs");
    R.endToEnd("max_rate_rps", "1/s", double(Quiet.size()) / QuietSecs,
               "jobs per second, one caller back to back" + Of);
    R.endToEnd("peak_rss_mb", "MB", RssMb, "after the timed jobs");
    return;
  }

  // Per-layer metrics, averaged over the traced jobs.
  double N = double(std::max(1, Traced));
  double Sweeps = std::max(1.0, Sum["sweeps"]);
  R.perLayer("compile.calls", "count", Sum["compile_calls"] / N, "per job");
  R.perLayer("compile.total_ms", "ms", Sum["compile_ms"] / N, "per job");
  for (const char *Phase :
       {"frontend", "density", "kernel", "depgraph", "lowpp", "reduce"})
    R.perLayer(std::string("compile.") + Phase + "_ms", "ms", Sum[Phase] / N);
  R.perLayer("cgen.cc_calls", "count", Sum["cc_calls"] / N, "per job");
  R.perLayer("cgen.cc_ms", "ms", Sum["cc_ms"] / N, "per job");
  R.perLayer("cgen.native_procs", "count", Sum["native_procs"] / N);
  R.perLayer("cgen.fallback_procs", "count", Sum["fallback_procs"] / N);
  for (const char *Ex : {"tree", "plan", "native"})
    R.perLayer(std::string("exec.") + Ex + "_ms_per_sweep", "ms",
               Sum[std::string(Ex) + "_ms"] / Sweeps);
  R.perLayer("exec.plan_coverage", "ratio",
             Sum["runs"] > 0 ? Sum["plan_runs"] / Sum["runs"] : 0.0);
  R.perLayer("fc.maint_ms_per_sweep", "ms", Sum["fc_maint_ms"] / Sweeps);
  double Looked = Sum["fc_hits"] + Sum["fc_evaluated"];
  R.perLayer("fc.hit_ratio", "ratio",
             Looked > 0 ? Sum["fc_hits"] / Looked : 0.0);
  R.perLayer("parallel.chain_overlap", "ratio", Overlap.median());
  R.perLayer("robust.checkpoint_write_ms", "ms", Sum["ckpt_ms"] / N);
  R.perLayer("robust.checkpoint_bytes", "bytes", Sum["ckpt_bytes"] / N);
  for (const char *Serve :
       {"serve.queue_ms_p50", "serve.lock_wait_ms_p50",
        "serve.lock_wait_ms_tail", "serve.sample_ms_p50",
        "serve.isolated_ms_p50"})
    R.perLayer(Serve, "ms", 0, "no daemon");
  R.perLayer("serve.forks_per_native_request", "ratio", 0, "no daemon");
  R.perLayer("serve.cache_hit_ratio", "ratio", 0, "no daemon");
  R.perLayer("serve.gen_lateness_ms_tail", "ms", 0, "no daemon");
  double Overhead =
      UntracedGaps.median() > 0
          ? TracedGaps.median() / UntracedGaps.median() - 1.0
          : 0.0;
  R.perLayer("telemetry.overhead_frac", "ratio", Overhead,
             "traced vs untraced sweep_ms_p50");
  R.perLayer("error_frac", "ratio", double(R.Failed) / double(R.Attempted));
  double Covered = (Sum["tree_ms"] + Sum["plan_ms"] + Sum["native_ms"] +
                    Sum["fc_maint_ms"]) /
                   Sweeps;
  double Traced50 = TracedGaps.median();
  std::printf("accounting: updates + fc upkeep = %.3f ms of a %.3f ms "
              "traced sweep p50 (%.0f%%)\n",
              Covered, Traced50,
              Traced50 > 0 ? 100.0 * Covered / Traced50 : 0.0);
}

std::vector<Value> ldaArgs(const Corpus &C, int64_t K) {
  return {Value::intScalar(K),
          Value::intScalar(C.D),
          Value::intScalar(C.V),
          Value::realVec(BlockedReal::flat(K, 0.5)),
          Value::realVec(BlockedReal::flat(C.V, 0.1)),
          Value::intVec(C.Lengths)};
}

} // namespace

/// Which executor ran an update: the proc doing its heavy work is the
/// gradient (HMC), else the Gibbs procedure, else the restricted
/// likelihood. Native wins over a plan because NativeEngine::runProc
/// only falls back to the interpreter (and its plans) when a proc did
/// not compile.
std::string executorOf(MCMCProgram &P, const CompiledUpdate &CU) {
  const std::string &Proc = !CU.GradProc.empty()    ? CU.GradProc
                            : !CU.GibbsProc.empty() ? CU.GibbsProc
                                                    : CU.LLProc;
  if (auto *NE = dynamic_cast<NativeEngine *>(&P.engine()))
    if (NE->isNative(Proc))
      return "native";
  return P.engine().procVectorized(Proc) == 1 ? "plan" : "tree";
}

void runGibbsLda(const Options &O, Report &R) {
  const int64_t V = O.Tiny ? 100 : 1000, D = O.Tiny ? 40 : 200;
  const int64_t MeanLen = O.Tiny ? 40 : 100, K = O.Tiny ? 2 : 8;
  Corpus C = ldaCorpus(V, D, MeanLen, K, philoxMix(O.Seed, 1));
  Spec S;
  S.Source = models::LDA;
  S.Args = ldaArgs(C, K);
  S.Data["w"] = Value::intVec(C.Words, Type::vec(Type::vec(Type::intTy())));
  S.CO.Seed = philoxMix(O.Seed, 2);
  // Non-collapsed LDA Gibbs from a prior draw needs ~250 sweeps before
  // its topics settle, so the check job is 300 sweeps and the topic
  // check reads the mean of its last 30 draws.
  S.CheckDraws = O.Tiny ? 150 : 300;
  S.DrawsPerChain = O.Tiny ? 30 : 50;
  S.TrackLogJoint = true;
  S.LatencyLimitMs = 2000;
  S.RefDraws = 3;
  S.BurnDraws = S.CheckDraws - 30;
  S.PosteriorVar = "phi";
  std::printf("corpus: V=%lld D=%lld K=%lld tokens=%lld\n", (long long)V,
              (long long)D, (long long)K, (long long)C.Tokens);
  runWorkload(S, O, R, [&](const ChainMeans &Means) {
    const std::vector<double> &Phi = Means.at(0);
    // Generating topics are disjoint bands of V/K words. Averaged over
    // the inferred topics, the heaviest band must hold at least 0.4 of a
    // topic's mass (uniform: 1/K; converged chains: about 0.65). The
    // mean, not every topic: from a prior draw the sampler can sit for
    // hundreds of sweeps in a mode where one topic spans two bands and
    // another is diffuse (half of the seeds tried at 300 sweeps).
    int64_t Band = V / K;
    double TopSum = 0.0;
    int Single = 0;
    for (int64_t T = 0; T < K && Phi.size() == size_t(K * V); ++T) {
      std::vector<double> Mass(size_t(K), 0.0);
      for (int64_t W = 0; W < V; ++W)
        Mass[size_t(std::min(W / Band, K - 1))] += Phi[size_t(T * V + W)];
      std::sort(Mass.rbegin(), Mass.rend());
      TopSum += Mass[0];
      Single += Mass[0] >= 0.35 && Mass[0] >= 3.0 * Mass[1] ? 1 : 0;
    }
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "topics put %.2f of their mass on one generating band on "
                  "average (%d/%lld on a single band)",
                  TopSum / double(K), Single, (long long)K);
    R.check(Phi.size() == size_t(K * V) && TopSum / double(K) >= 0.4, Buf);
  });
}

void runHmcHlrNative(const Options &O, Report &R) {
  const int64_t N = O.Tiny ? 200 : 1000, Kf = O.Tiny ? 6 : 24;
  LogisticData L = logisticData(N, Kf, philoxMix(O.Seed, 3));
  Spec S;
  S.Source = models::HLR;
  S.Args = {Value::realScalar(1.0), Value::intScalar(N), Value::intScalar(Kf),
            Value::realVec(L.X, Type::vec(Type::vec(Type::realTy())))};
  S.Data["y"] = Value::intVec(L.Y);
  S.CO.Seed = philoxMix(O.Seed, 4);
  S.CO.NativeCpu = true;
  S.CO.Hmc.StepSize = 0.015;
  S.CO.Hmc.LeapfrogSteps = 10;
  S.CO.Par.Chains = 4;
  // The default single thread: the 4 chains run one after another.
  S.CO.Par.NumThreads = 1;
  S.MultiChain = true;
  S.CheckDraws = O.Tiny ? 10 : 40;
  S.DrawsPerChain = O.Tiny ? 5 : 10;
  S.CheckpointEvery = 5;
  S.LatencyLimitMs = 4000;
  S.RefDraws = 2;
  S.BurnDraws = 5;
  S.PosteriorVar = "theta";
  std::printf("data: N=%lld Kf=%lld, native backend, 4 chains\n",
              (long long)N, (long long)Kf);
  runWorkload(S, O, R, [&](const ChainMeans &Means) {
    // A chain that starts far out in the prior can stall (acceptance
    // near 0.2 for tens of sweeps), so at least half of the chains, not
    // all, must recover every sign.
    size_t Good = 0;
    for (const auto &Theta : Means) {
      int Right = 0;
      for (int64_t K = 0; K < Kf && size_t(K) < Theta.size(); ++K)
        Right += (Theta[size_t(K)] > 0) == (L.TrueTheta[size_t(K)] > 0);
      Good += Right == Kf ? 1 : 0;
    }
    R.check(2 * Good >= Means.size() && !Means.empty(),
            std::to_string(Good) + "/" + std::to_string(Means.size()) +
                " chains' posterior means recover the sign of all " +
                std::to_string(Kf) + " generating coefficients");
  });
}

} // namespace perfbench
