//===- api/Infer.cpp ------------------------------------------*- C++ -*-===//

#include "api/Infer.h"

#include "api/Diagnostics.h"
#include "robust/Checkpoint.h"
#include "robust/FaultInject.h"
#include "support/Format.h"
#include "support/PhiloxRNG.h"

using namespace augur;

namespace {

/// Hash of everything that determines a chain's sample stream: model
/// source, realized schedule, seed/chain/backend, and the sweep layout
/// of the sampling request. Resume refuses a checkpoint written under a
/// different fingerprint — replaying "the remaining stream" is only
/// meaningful when the stream is the same.
uint64_t chainFingerprint(MCMCProgram &Prog, const SampleOptions &SO) {
  const CompileOptions &O = Prog.artifact().Opts;
  uint64_t H = robust::fnv1a(Prog.artifact().Source);
  H = robust::fnv1a(Prog.schedule().str(), H);
  uint64_t Words[] = {Prog.seed(),
                      uint64_t(Prog.chainIndex()),
                      uint64_t(O.Tgt),
                      uint64_t(O.NativeCpu ? 1 : 0),
                      uint64_t(SO.BurnIn),
                      uint64_t(SO.Thin < 1 ? 1 : SO.Thin),
                      uint64_t(SO.NumSamples)};
  H = robust::fnv1a(Words, sizeof(Words), H);
  return H;
}

/// Per-update checkpoint key prefix ("u<index>/").
std::string updateKey(size_t I) { return "u" + std::to_string(I) + "/"; }

/// Snapshots the full chain state between sweeps.
robust::ChainCheckpoint snapshotProgram(MCMCProgram &Prog,
                                        uint64_t Fingerprint, int ChainId,
                                        uint64_t SweepsDone,
                                        uint64_t SamplesKept) {
  robust::ChainCheckpoint CP;
  CP.ModelFingerprint = Fingerprint;
  CP.ChainId = uint64_t(ChainId);
  CP.SweepsDone = SweepsDone;
  CP.SamplesKept = SamplesKept;
  CP.RngWords = Prog.engine().rng().saveState();
  for (const auto &Name : Prog.densityModel().TM.M.paramNames()) {
    auto It = Prog.state().find(Name);
    if (It != Prog.state().end())
      CP.Slots.emplace_back(Name, It->second);
  }
  auto &Updates = Prog.updates();
  for (size_t I = 0; I < Updates.size(); ++I) {
    const CompiledUpdate &CU = Updates[I];
    std::string P = updateKey(I);
    CP.Scalars.emplace_back(P + "hmc_step", CU.U.Hmc.StepSize);
    CP.Counters.emplace_back(P + "proposed", CU.Stats.Proposed);
    CP.Counters.emplace_back(P + "accepted", CU.Stats.Accepted);
    uint64_t W[robust::GuardState::NumWords];
    CU.Guard.toWords(W);
    for (int K = 0; K < robust::GuardState::NumWords; ++K)
      CP.Counters.emplace_back(P + "guard" + std::to_string(K), W[K]);
  }
  return CP;
}

/// Restores a snapshot into the freshly-built chain \p Prog. The chain
/// must have been built from the same source/options (checked via the
/// fingerprint); restore then overwrites latents, RNG, step sizes, and
/// per-site counters, and invalidates the factor cache so the first
/// resumed logJoint() recomputes from the restored state.
Status restoreProgram(MCMCProgram &Prog, const robust::ChainCheckpoint &CP,
                      uint64_t Fingerprint) {
  if (CP.ModelFingerprint != Fingerprint)
    return Status::error(
        "checkpoint fingerprint mismatch: refusing to resume a different "
        "model, schedule, seed, or sampling plan");
  Env &E = Prog.state();
  for (const auto &[Name, V] : CP.Slots) {
    auto It = E.find(Name);
    if (It == E.end())
      return Status::error(strFormat(
          "checkpoint slot '%s' is not a parameter of the compiled program",
          Name.c_str()));
    It->second = V;
  }
  AUGUR_RETURN_IF_ERROR(Prog.engine().rng().restoreState(CP.RngWords));
  std::map<std::string, double> Scalars(CP.Scalars.begin(), CP.Scalars.end());
  std::map<std::string, uint64_t> Counters(CP.Counters.begin(),
                                           CP.Counters.end());
  auto Counter = [&](const std::string &Key, uint64_t &Out) -> Status {
    auto It = Counters.find(Key);
    if (It == Counters.end())
      return Status::error(
          strFormat("checkpoint is missing counter '%s'", Key.c_str()));
    Out = It->second;
    return Status::success();
  };
  auto &Updates = Prog.updates();
  for (size_t I = 0; I < Updates.size(); ++I) {
    CompiledUpdate &CU = Updates[I];
    std::string P = updateKey(I);
    auto SIt = Scalars.find(P + "hmc_step");
    if (SIt == Scalars.end())
      return Status::error(strFormat(
          "checkpoint is missing scalar '%shmc_step'", P.c_str()));
    CU.U.Hmc.StepSize = SIt->second;
    AUGUR_RETURN_IF_ERROR(Counter(P + "proposed", CU.Stats.Proposed));
    AUGUR_RETURN_IF_ERROR(Counter(P + "accepted", CU.Stats.Accepted));
    uint64_t W[robust::GuardState::NumWords];
    for (int K = 0; K < robust::GuardState::NumWords; ++K)
      AUGUR_RETURN_IF_ERROR(Counter(P + "guard" + std::to_string(K), W[K]));
    CU.Guard.fromWords(W);
    CU.LastDiverged = false;
  }
  Prog.invalidateCache();
  return Status::success();
}

} // namespace

/// One flat sweep loop so checkpoint/resume has a single linear
/// position: sweep s retains a draw iff s > BurnIn and
/// (s - BurnIn) % Thin == 0 — the same stream the original nested
/// burn-in/thin loops produced.
Result<SampleSet> augur::collectSamples(MCMCProgram &Prog,
                                        const SampleOptions &SO) {
  std::vector<std::string> Record = SO.Record;
  if (Record.empty())
    Record = Prog.densityModel().TM.M.paramNames();
  const uint64_t Fingerprint = chainFingerprint(Prog, SO);
  const int ChainId = Prog.chainIndex();
  SampleSet Out;
  Out.ChainId = ChainId;
  const bool Ckpt = !SO.CheckpointDir.empty();
  const std::string Path =
      Ckpt ? robust::checkpointPath(SO.CheckpointDir, uint64_t(ChainId))
           : std::string();
  uint64_t SweepsDone = 0, SamplesKept = 0;
  if (Ckpt && SO.Resume && robust::checkpointExists(Path)) {
    Result<robust::ChainCheckpoint> CP = robust::readCheckpoint(Path);
    if (!CP.ok())
      return CP.status();
    AUGUR_RETURN_IF_ERROR(restoreProgram(Prog, *CP, Fingerprint));
    SweepsDone = CP->SweepsDone;
    SamplesKept = CP->SamplesKept;
    Out.ResumedSweeps = SweepsDone;
  }
  const uint64_t BurnIn = uint64_t(SO.BurnIn < 0 ? 0 : SO.BurnIn);
  const uint64_t Thin = uint64_t(SO.Thin < 1 ? 1 : SO.Thin);
  const uint64_t Total = BurnIn + uint64_t(SO.NumSamples) * Thin;
  while (SweepsDone < Total) {
    // Crash-class probe (sigsegv / oom / worker-hang): a no-op unless
    // this process opted in via robust::setCrashFaultsEnabled — i.e.
    // only forked sandbox workers and fuzz drivers ever die here.
    robust::crashFaultProbe();
    try {
      AUGUR_RETURN_IF_ERROR(Prog.step());
      ++SweepsDone;
      if (SweepsDone > BurnIn && (SweepsDone - BurnIn) % Thin == 0) {
        std::vector<const Value *> Row;
        Row.reserve(Record.size());
        for (const auto &Var : Record) {
          auto It = Prog.state().find(Var);
          if (It == Prog.state().end())
            return Status::error(
                strFormat("unknown parameter '%s'", Var.c_str()));
          Row.push_back(&It->second);
        }
        double LJ = SO.TrackLogJoint ? Prog.logJoint() : 0.0;
        if (SO.KeepDraws) {
          for (size_t I = 0; I < Record.size(); ++I)
            Out.Draws[Record[I]].push_back(*Row[I]);
          Out.LogJoint.push_back(LJ);
        }
        if (SO.OnDraw)
          AUGUR_RETURN_IF_ERROR(SO.OnDraw(SamplesKept, Record, Row, LJ));
        ++SamplesKept;
      }
    } catch (...) {
      return execFaultStatus("sampling");
    }
    if (Ckpt && SO.CheckpointEvery > 0 &&
        SweepsDone % uint64_t(SO.CheckpointEvery) == 0 && SweepsDone < Total)
      AUGUR_RETURN_IF_ERROR(robust::writeCheckpoint(
          Path, snapshotProgram(Prog, Fingerprint, ChainId, SweepsDone,
                                SamplesKept)));
  }
  if (Ckpt)
    AUGUR_RETURN_IF_ERROR(robust::writeCheckpoint(
        Path, snapshotProgram(Prog, Fingerprint, ChainId, SweepsDone,
                              SamplesKept)));
  for (const auto &CU : Prog.updates()) {
    Out.AcceptRates[updateDisplayName(CU.U)] = CU.Stats.acceptRate();
    if (!CU.GibbsProc.empty()) {
      int V = Prog.engine().procVectorized(CU.GibbsProc);
      if (V >= 0)
        Out.VectorizedUpdates[updateDisplayName(CU.U)] = V;
    }
  }
  if (diag::ChainDiag *D = Prog.chainDiag()) {
    Out.Rhat = D->rhats();
    Out.Ess = D->esses();
  }
  return Out;
}

double SampleSet::scalarMean(const std::string &Var) const {
  auto It = Draws.find(Var);
  assert(It != Draws.end() && "parameter was not recorded");
  assert(!It->second.empty() && "no draws recorded");
  double Sum = 0.0;
  for (const auto &V : It->second)
    Sum += V.asReal();
  return Sum / double(It->second.size());
}

Status Infer::compile(std::vector<Value> HyperArgs, Env Data) {
  AUGUR_ASSIGN_OR_RETURN(Art, Compiler::compile(Source, Opts, HyperArgs, Data));
  Prog = std::make_unique<MCMCProgram>(Art, Opts.Seed, 0);
  try {
    return Prog->init();
  } catch (...) {
    Prog.reset();
    return execFaultStatus("init");
  }
}

Result<SampleSet> Infer::sample(const SampleOptions &SO) {
  if (!Prog)
    return Status::error("sample() called before a successful compile()");
  return collectSamples(*Prog, SO);
}

Result<std::vector<SampleSet>> Infer::sampleChains(const SampleOptions &SO) {
  if (!Prog)
    return Status::error(
        "sampleChains() called before a successful compile()");
  int NumChains = Opts.Par.Chains < 1 ? 1 : Opts.Par.Chains;

  // Build and initialize every chain of the one artifact (no
  // compilation), then sample them concurrently: each chain owns its
  // state and RNG, so chains share nothing mutable.
  std::vector<std::unique_ptr<MCMCProgram>> Chains;
  for (int C = 0; C < NumChains; ++C) {
    auto P = std::make_unique<MCMCProgram>(
        Art, philoxMix(Opts.Seed, uint64_t(C)), C);
    Status Init;
    try {
      Init = P->init();
    } catch (...) {
      Init = execFaultStatus("init");
    }
    if (!Init.ok())
      return Status::error(
          strFormat("chain %d: %s", C, Init.message().c_str()));
    Chains.push_back(std::move(P));
  }

  std::vector<SampleSet> Sets;
  Sets.resize(size_t(NumChains));
  std::vector<Status> ChainStatus(size_t(NumChains), Status::success());
  auto RunChain = [&](int64_t C) {
    Result<SampleSet> R = collectSamples(*Chains[size_t(C)], SO);
    if (R.ok())
      Sets[size_t(C)] = R.take();
    else
      ChainStatus[size_t(C)] = Status::error(strFormat(
          "chain %d: %s", int(C), R.message().c_str()));
  };
  if (Opts.Par.NumThreads != 1 && NumChains > 1) {
    // Whole chains are the outer parallel dimension; Par/AtmPar loops
    // inside a chain then execute inline on the chain's worker.
    ThreadPool::global(Opts.Par.resolvedThreads())
        .parallelFor(0, NumChains, 1,
                     [&](int64_t Lo, int64_t Hi, int /*Lane*/) {
                       for (int64_t C = Lo; C < Hi; ++C)
                         RunChain(C);
                     });
  } else {
    for (int64_t C = 0; C < NumChains; ++C)
      RunChain(C);
  }
  for (const auto &St : ChainStatus)
    AUGUR_RETURN_IF_ERROR(St);
  return Sets;
}
