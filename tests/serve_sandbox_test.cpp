//===- tests/serve_sandbox_test.cpp - Crash-isolated serving ----*- C++ -*-===//
//
// Tests of the process-isolation layer (DESIGN.md section 17): the
// StreamCursor retry-transparency filter and the Supervisor policy
// machine as units, then the full sandbox path end-to-end against an
// in-process Server:
//
//  * sandboxed streams (ring and pipe transports) are bit-identical to
//    Infer::sampleChains — isolation is a transport, never a semantic
//    change,
//  * native modules are built once, in the daemon, with the artifact:
//    forked workers inherit them rather than running the host compiler,
//  * an injected SIGSEGV mid-stream is retried transparently: the
//    client sees one seamless, complete, bit-identical stream while
//    the crash/retry counters advance,
//  * a worker that crashes on every attempt falls back to the
//    in-process interpreter hedge (same draws) or, with hedging off,
//    surfaces a structured `worker-crashed` error with signal detail,
//  * the per-artifact circuit breaker quarantines a repeatedly-crashing
//    artifact (no further forks; interpreter-only) and reports it via
//    the Prometheus scrape,
//  * a SIGTERM-ignoring hung worker is killed at the request deadline
//    and releases its pool slot,
//  * an allocation-bomb worker dies against its RLIMIT_AS, contained,
//  * a crash under concurrent traffic affects only its own request;
//    every other client's stream completes and no zombie children are
//    left behind (ECHILD),
//  * serve::Client resubmits on `worker-crashed` per its retry policy.
//
// Crash faults (sigsegv / oom / worker-hang in AUGUR_FAULT_SPEC) fire
// only inside forked workers: the daemon process never opts in, so the
// very faults that kill a worker are no-ops in the test binary itself.
//
//===----------------------------------------------------------------------===//

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "api/Infer.h"
#include "models/PaperModels.h"
#include "robust/FaultInject.h"
#include "serve/Client.h"
#include "serve/Sandbox.h"
#include "serve/Server.h"
#include "serve/Supervisor.h"
#include "serve/Workloads.h"
#include "telemetry/Telemetry.h"

using namespace augur;
using namespace augur::serve;

// ASan and TSan reserve enormous address-space shadows, so tests that
// impose RLIMIT_AS on the worker (the OOM containment path) cannot run
// under them; they also intercept SIGSEGV and turn it into an unclean
// exit, so died-by-signal assertions gate on this too (the crash is
// still classified as a crash either way).
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define AUGUR_VA_SANITIZER 1
#endif
#endif
#if !defined(AUGUR_VA_SANITIZER) &&                                         \
    (defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__))
#define AUGUR_VA_SANITIZER 1
#endif

namespace {

bool bitEq(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

bool bitIdentical(const Value &A, const Value &B) {
  if (A.isIntScalar() || B.isIntScalar())
    return A.isIntScalar() && B.isIntScalar() && A.asInt() == B.asInt();
  if (A.isRealScalar() || B.isRealScalar())
    return A.isRealScalar() && B.isRealScalar() &&
           bitEq(A.asReal(), B.asReal());
  if (A.isIntVec() || B.isIntVec())
    return A.isIntVec() && B.isIntVec() && A.intVec() == B.intVec();
  if (A.isRealVec() || B.isRealVec()) {
    if (!A.isRealVec() || !B.isRealVec())
      return false;
    const auto &FA = A.realVec().flat(), &FB = B.realVec().flat();
    if (FA.size() != FB.size() ||
        A.realVec().offsets() != B.realVec().offsets())
      return false;
    return FA.empty() ||
           std::memcmp(FA.data(), FB.data(),
                       FA.size() * sizeof(double)) == 0;
  }
  return A == B;
}

/// Starts a server on an ephemeral TCP port and connects clients to it.
struct LiveServer {
  explicit LiveServer(ServerOptions O = ServerOptions()) : S(std::move(O)) {
    Status St = S.start();
    EXPECT_TRUE(St.ok()) << St.message();
  }
  ~LiveServer() { S.stop(); }

  Client connect() {
    Result<Client> C = Client::connectTcp("127.0.0.1", S.port());
    EXPECT_TRUE(C.ok()) << C.message();
    return C.ok() ? C.take() : Client();
  }

  Server S;
};

/// Server options with fast sandbox policy timings for crash tests.
ServerOptions isolatedOptions() {
  ServerOptions O;
  O.Isolation = ServerOptions::IsolationMode::Native;
  O.RetryBackoffMillis = 5;
  O.CrashBackoffMillis = 5;
  O.CrashBackoffMaxMillis = 25;
  return O;
}

/// Runs \p SR directly through the api layer, the way a non-serving
/// caller would (one program per chain, seed philoxMix(Seed, c)).
std::vector<SampleSet> directChains(const SampleRequest &SR) {
  Infer Aug(SR.Model);
  CompileOptions CO;
  CO.NativeCpu = SR.NativeCpu;
  CO.UserSchedule = SR.Schedule;
  CO.Seed = SR.Seed;
  CO.Par.NumThreads = SR.Threads;
  CO.Par.Chains = SR.Chains;
  Aug.setCompileOpt(CO);
  Status St = Aug.compile(SR.Args, SR.Data);
  EXPECT_TRUE(St.ok()) << St.message();
  SampleOptions SO;
  SO.NumSamples = SR.NumSamples;
  SO.BurnIn = SR.BurnIn;
  SO.Thin = SR.Thin;
  SO.Record = SR.Record;
  SO.TrackLogJoint = SR.TrackLogJoint;
  Result<std::vector<SampleSet>> R = Aug.sampleChains(SO);
  EXPECT_TRUE(R.ok()) << R.message();
  return R.ok() ? R.take() : std::vector<SampleSet>();
}

/// Asserts the served chains carry exactly the draws a direct run
/// produces, bit for bit.
void expectChainsMatchDirect(const std::vector<SampleSet> &Served,
                             const SampleRequest &SR) {
  std::vector<SampleSet> Direct = directChains(SR);
  ASSERT_EQ(Served.size(), Direct.size());
  for (size_t C = 0; C < Served.size(); ++C) {
    ASSERT_EQ(Served[C].Draws.size(), Direct[C].Draws.size()) << "chain " << C;
    for (const auto &KV : Direct[C].Draws) {
      auto It = Served[C].Draws.find(KV.first);
      ASSERT_NE(It, Served[C].Draws.end()) << KV.first;
      ASSERT_EQ(It->second.size(), KV.second.size()) << KV.first;
      for (size_t I = 0; I < KV.second.size(); ++I)
        EXPECT_TRUE(bitIdentical(It->second[I], KV.second[I]))
            << KV.first << " draw " << I << " chain " << C;
    }
  }
}

/// Counter value from the daemon's metrics op (0 when absent).
int64_t counterOf(Client &C, const char *Key, uint64_t Id = 900) {
  Result<Json> M = C.metrics(Id);
  EXPECT_TRUE(M.ok()) << M.message();
  if (!M.ok())
    return 0;
  const Json *Counters = M->find("counters");
  return Counters ? Counters->getInt(Key, 0) : 0;
}

/// Installs a crash-fault spec for the duration of one test and
/// guarantees cleanup (env unset + injector disarmed) on scope exit.
struct ScopedFaultSpec {
  explicit ScopedFaultSpec(const char *Spec) {
    EXPECT_EQ(0, setenv("AUGUR_FAULT_SPEC", Spec, 1));
    // Install immediately: the daemon's compile would also pick it up,
    // but tests that hit a cached artifact never recompile.
    EXPECT_TRUE(robust::FaultInjector::global().configure(Spec).ok());
  }
  ~ScopedFaultSpec() {
    unsetenv("AUGUR_FAULT_SPEC");
    EXPECT_TRUE(robust::FaultInjector::global().configure("").ok());
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Units: StreamCursor and Supervisor
//===----------------------------------------------------------------------===//

TEST(ServeSandbox, CursorForwardsEachDrawExactlyOnce) {
  StreamCursor Cur(2);
  EXPECT_TRUE(Cur.shouldForward(0, 0));
  EXPECT_FALSE(Cur.shouldForward(0, 1)); // ahead: not yet
  Cur.advance(0);
  EXPECT_FALSE(Cur.shouldForward(0, 0)); // behind: replayed prefix
  EXPECT_TRUE(Cur.shouldForward(0, 1));
  EXPECT_TRUE(Cur.shouldForward(1, 0)); // chains are independent
  Cur.advance(1);
  Cur.advance(1);
  EXPECT_EQ(Cur.next(1), 2);
  EXPECT_EQ(Cur.totalForwarded(), 3u);
  // Out-of-range chains never forward and never crash.
  EXPECT_FALSE(Cur.shouldForward(-1, 0));
  EXPECT_FALSE(Cur.shouldForward(7, 0));
  Cur.advance(7);
  EXPECT_EQ(Cur.totalForwarded(), 3u);
}

TEST(ServeSandbox, BreakerLifecycle) {
  SupervisorOptions SO;
  SO.BreakerThreshold = 2;
  SO.BreakerCooldownMillis = 40;
  SO.CrashBackoffMillis = 0; // storm backoff exercised separately
  Supervisor Sup(SO);
  const uint64_t Key = 0xA1;

  // Closed: crashes below the threshold keep admitting.
  EXPECT_FALSE(Sup.admit(Key).Degrade);
  Sup.reportOutcome(Key, /*Crashed=*/true, false);
  EXPECT_EQ(Sup.breakerState(Key), BreakerState::Closed);
  EXPECT_FALSE(Sup.admit(Key).Degrade);

  // Threshold reached: Open, everyone degrades.
  Sup.reportOutcome(Key, /*Crashed=*/true, false);
  EXPECT_EQ(Sup.breakerState(Key), BreakerState::Open);
  EXPECT_TRUE(Sup.admit(Key).Degrade);
  EXPECT_EQ(Sup.stats().BreakersOpen, 1u);

  // Cooldown elapses: exactly one trial; contenders still degrade.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(Sup.breakerState(Key), BreakerState::HalfOpen);
  Admission Trial = Sup.admit(Key);
  EXPECT_FALSE(Trial.Degrade);
  EXPECT_TRUE(Trial.Trial);
  EXPECT_TRUE(Sup.admit(Key).Degrade);

  // Trial crash: back to Open with a doubled cooldown.
  Sup.reportOutcome(Key, /*Crashed=*/true, /*WasTrial=*/true);
  EXPECT_EQ(Sup.breakerState(Key), BreakerState::Open);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(Sup.breakerState(Key), BreakerState::Open) // 80ms now
      << "reopen must double the cooldown";
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  Admission Trial2 = Sup.admit(Key);
  EXPECT_TRUE(Trial2.Trial);

  // Trial success: fully Closed, state forgotten.
  Sup.reportOutcome(Key, /*Crashed=*/false, /*WasTrial=*/true);
  EXPECT_EQ(Sup.breakerState(Key), BreakerState::Closed);
  EXPECT_EQ(Sup.stats().BreakersOpen, 0u);
  EXPECT_FALSE(Sup.admit(Key).Degrade);

  // An abandoned trial frees the probe slot without a verdict.
  Sup.reportOutcome(Key, true, false);
  Sup.reportOutcome(Key, true, false);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_TRUE(Sup.admit(Key).Trial);
  EXPECT_TRUE(Sup.admit(Key).Degrade); // probe slot taken
  Sup.abandonTrial(Key);
  EXPECT_TRUE(Sup.admit(Key).Trial); // and free again
}

TEST(ServeSandbox, CrashStormBackoffGrowsAndResets) {
  SupervisorOptions SO;
  SO.CrashBackoffMillis = 50;
  SO.CrashBackoffMaxMillis = 120;
  SO.BreakerThreshold = 100; // keep breakers out of this test
  Supervisor Sup(SO);

  EXPECT_EQ(Sup.admit(1).WaitMillis, 0);
  Sup.reportOutcome(1, /*Crashed=*/true, false);
  int64_t W1 = Sup.admit(1).WaitMillis;
  EXPECT_GT(W1, 0);
  EXPECT_LE(W1, 50);
  Sup.reportOutcome(2, /*Crashed=*/true, false); // global, any artifact
  int64_t W2 = Sup.admit(1).WaitMillis;
  EXPECT_GT(W2, W1);
  Sup.reportOutcome(3, true, false);
  Sup.reportOutcome(3, true, false);
  EXPECT_LE(Sup.admit(1).WaitMillis, 120); // capped

  // Any safe completion collapses the storm window (the fork-allowed
  // time already scheduled still stands, but stops growing).
  Sup.reportOutcome(1, /*Crashed=*/false, false);
  std::this_thread::sleep_for(std::chrono::milliseconds(130));
  EXPECT_EQ(Sup.admit(1).WaitMillis, 0);
  Sup.reportOutcome(1, true, false);
  int64_t W3 = Sup.admit(1).WaitMillis;
  EXPECT_GT(W3, 0);
  EXPECT_LE(W3, 50) << "reset must restart the exponential from the base";
}

TEST(ServeSandbox, SlotAcquisitionHonorsDeadlinesAndShutdown) {
  SupervisorOptions SO;
  SO.MaxWorkers = 1;
  Supervisor Sup(SO);
  ASSERT_TRUE(Sup.acquireSlot(false, std::chrono::steady_clock::now()));
  EXPECT_EQ(Sup.stats().WorkersLive, 1);

  // Second acquire with an already-passed deadline: fails fast.
  EXPECT_FALSE(Sup.acquireSlot(
      true, std::chrono::steady_clock::now() - std::chrono::seconds(1)));

  // Release frees the slot for the next taker.
  Sup.releaseSlot();
  ASSERT_TRUE(Sup.acquireSlot(
      true, std::chrono::steady_clock::now() + std::chrono::seconds(5)));

  // Shutdown unblocks undeadlined waiters with failure.
  std::thread Waiter([&] {
    EXPECT_FALSE(Sup.acquireSlot(false, std::chrono::steady_clock::now()));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Sup.shutdown();
  Waiter.join();
}

//===----------------------------------------------------------------------===//
// End-to-end: sandboxed serving
//===----------------------------------------------------------------------===//

TEST(ServeSandbox, SandboxedStreamsAreBitIdenticalToDirect) {
  SampleRequest SR = gmmRequest(/*N=*/40);
  SR.NativeCpu = true;
  SR.NumSamples = 8;

  LiveServer L(isolatedOptions());
  Client C = L.connect();
  int64_t Forks0 = counterOf(C, "serve/sandbox/forks");
  Result<Client::SampleOutcome> R = C.sample(SR, 101);
  ASSERT_TRUE(R.ok()) << R.message();
  expectChainsMatchDirect(R->Chains, SR);
  // The request really was served from a forked worker.
  EXPECT_GT(counterOf(C, "serve/sandbox/forks"), Forks0);
  // And its convergence diagnostics crossed the sandbox boundary into
  // the parent's registry.
  bool SawDiag = false;
  for (const auto &KV : Recorder::global().gauges())
    if (KV.first.find("diag/rhat/") != std::string::npos)
      SawDiag = true;
  EXPECT_TRUE(SawDiag);
}

TEST(ServeSandbox, WorkersInheritTheParentsNativeModules) {
  // A small HLR instance: its likelihood and gradient compile natively.
  const int64_t N = 40, Kf = 3;
  RNG DataRng(0x5B);
  BlockedReal X = BlockedReal::rect(N, Kf, 0.0);
  BlockedInt Y = BlockedInt::flat(N, 0);
  for (int64_t I = 0; I < N; ++I) {
    for (int64_t J = 0; J < Kf; ++J)
      X.at(I, J) = DataRng.gauss();
    Y.at(I) = X.at(I, 0) > 0.0 ? 1 : 0;
  }
  SampleRequest SR;
  SR.Model = models::HLR;
  SR.Args = {Value::realScalar(1.0), Value::intScalar(N),
             Value::intScalar(Kf),
             Value::realVec(X, Type::vec(Type::vec(Type::realTy())))};
  SR.Data["y"] = Value::intVec(Y);
  SR.NativeCpu = true;
  SR.Chains = 2;
  SR.NumSamples = 5;

  auto CgenSpans = [] {
    std::map<std::string, int> N;
    for (const TraceEvent &E : Recorder::global().traceEvents())
      if (E.Name.rfind("compile/cgen/", 0) == 0)
        ++N[E.Name.substr(13)];
    return N;
  };
  LiveServer L(isolatedOptions());
  Client C = L.connect();
  int64_t Forks0 = counterOf(C, "serve/sandbox/forks");
  std::map<std::string, int> Builds0 = CgenSpans();
  SampleRequest SR1 = SR;
  SR1.Seed = 1;
  Result<Client::SampleOutcome> First = C.sample(SR1, 111);
  ASSERT_TRUE(First.ok()) << First.message();

  // The daemon built both update procedures natively while compiling
  // the artifact — inside its serve/compile span, before any fork — so
  // workers inherit the loaded modules instead of running the host
  // compiler per request.
  std::vector<TraceEvent> Ev = Recorder::global().traceEvents();
  auto Newest = [&](const std::string &Name) {
    const TraceEvent *Last = nullptr;
    for (const TraceEvent &E : Ev)
      if (E.Name == Name && (!Last || E.StartNanos > Last->StartNanos))
        Last = &E;
    return Last;
  };
  const TraceEvent *Compile = Newest("serve/compile");
  ASSERT_NE(Compile, nullptr);
  const std::vector<std::string> Procs = {"llp_0", "grad_0"};
  for (const std::string &P : Procs) {
    const TraceEvent *Build = Newest("compile/cgen/" + P);
    ASSERT_NE(Build, nullptr) << P;
    EXPECT_GE(Build->StartNanos, Compile->StartNanos) << P;
    EXPECT_LE(Build->StartNanos + Build->DurNanos,
              Compile->StartNanos + Compile->DurNanos)
        << P;
    double Native = 0.0;
    for (const auto &Arg : Build->Args)
      if (Arg.first == "native")
        Native = Arg.second;
    EXPECT_EQ(Native, 1.0) << P << " did not build natively";
  }

  SampleRequest SR2 = SR;
  SR2.Seed = 2;
  Result<Client::SampleOutcome> Second = C.sample(SR2, 112);
  ASSERT_TRUE(Second.ok()) << Second.message();
  EXPECT_TRUE(Second->CacheHit);
  EXPECT_EQ(counterOf(C, "serve/sandbox/forks"), Forks0 + 2);

  // Each module was built once, in the daemon.
  std::map<std::string, int> Builds = CgenSpans();
  for (const std::string &P : Procs)
    EXPECT_EQ(Builds[P] - Builds0[P], 1) << P;

  expectChainsMatchDirect(First->Chains, SR1);
  expectChainsMatchDirect(Second->Chains, SR2);
}

TEST(ServeSandbox, PipeTransportServesIdenticalStream) {
  SampleRequest SR = gmmRequest(/*N=*/40);
  SR.NativeCpu = true;
  SR.NumSamples = 8;

  ServerOptions O = isolatedOptions();
  O.SandboxPipe = true; // force the fallback transport
  LiveServer L(O);
  Client C = L.connect();
  Result<Client::SampleOutcome> R = C.sample(SR, 102);
  ASSERT_TRUE(R.ok()) << R.message();
  expectChainsMatchDirect(R->Chains, SR);
}

TEST(ServeSandbox, IsolationOffNeverForks) {
  SampleRequest SR = gmmRequest(/*N=*/40);
  SR.NativeCpu = true;
  SR.NumSamples = 6;

  ServerOptions O;
  O.Isolation = ServerOptions::IsolationMode::Off;
  LiveServer L(O);
  Client C = L.connect();
  int64_t Forks0 = counterOf(C, "serve/sandbox/forks");
  Result<Client::SampleOutcome> R = C.sample(SR, 103);
  ASSERT_TRUE(R.ok()) << R.message();
  expectChainsMatchDirect(R->Chains, SR);
  EXPECT_EQ(counterOf(C, "serve/sandbox/forks"), Forks0);
}

TEST(ServeSandbox, CrashMidStreamIsRetriedTransparently) {
  // The worker dies by SIGSEGV at sweep 5 of 10 — after forwarding
  // four draws. The retry's worker replays the bit-identical stream;
  // the relay drops the four-draw prefix and the client sees one
  // seamless, complete stream.
  SampleRequest SR = gmmRequest(/*N=*/40);
  SR.NativeCpu = true;
  SR.NumSamples = 10;

  ServerOptions O = isolatedOptions();
  O.RetryMax = 2;
  LiveServer L(O);
  Client C = L.connect();
  int64_t Crashes0 = counterOf(C, "serve/sandbox/crashes");
  int64_t Retries0 = counterOf(C, "serve/sandbox/retries");

  ScopedFaultSpec Fault("sigsegv:n=5");
  Result<Client::SampleOutcome> R = C.sample(SR, 104);
  ASSERT_TRUE(R.ok()) << R.message();
  ASSERT_EQ(R->Chains.size(), 1u);
  EXPECT_EQ(R->Chains[0].LogJoint.size(), 10u);
  expectChainsMatchDirect(R->Chains, SR);

  EXPECT_EQ(counterOf(C, "serve/sandbox/crashes") - Crashes0, 1);
  EXPECT_GE(counterOf(C, "serve/sandbox/retries") - Retries0, 1);
}

TEST(ServeSandbox, CrashExhaustionFallsBackToInterpreterHedge) {
  // Every fork dies instantly (p=1). After the retry budget the server
  // hedges onto the in-process interpreter — which streams the same
  // bits the native worker would have.
  SampleRequest SR = gmmRequest(/*N=*/40);
  SR.NativeCpu = true;
  SR.NumSamples = 6;

  ServerOptions O = isolatedOptions();
  O.RetryMax = 1;
  LiveServer L(O);
  Client C = L.connect();
  int64_t Crashes0 = counterOf(C, "serve/sandbox/crashes");
  int64_t Hedges0 = counterOf(C, "serve/sandbox/hedges");

  ScopedFaultSpec Fault("sigsegv:p=1");
  Result<Client::SampleOutcome> R = C.sample(SR, 105);
  ASSERT_TRUE(R.ok()) << R.message();
  expectChainsMatchDirect(R->Chains, SR);

  EXPECT_EQ(counterOf(C, "serve/sandbox/crashes") - Crashes0, 2);
  EXPECT_GE(counterOf(C, "serve/sandbox/hedges") - Hedges0, 1);
}

TEST(ServeSandbox, ExhaustedCrashesSurfaceStructuredError) {
  SampleRequest SR = gmmRequest(/*N=*/40);
  SR.NativeCpu = true;
  SR.NumSamples = 6;

  ServerOptions O = isolatedOptions();
  O.RetryMax = 0;
  O.HedgeInterp = false;
  LiveServer L(O);
  Client C = L.connect();
  RetryPolicy NoClientRetry;
  NoClientRetry.MaxRetries = 0; // surface the server's verdict directly
  C.setRetryPolicy(NoClientRetry);

  ScopedFaultSpec Fault("sigsegv:p=1");
  Result<Client::SampleOutcome> R = C.sample(SR, 106);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("worker-crashed"), std::string::npos)
      << R.message();
  const ErrorDetail &E = C.lastError();
  EXPECT_EQ(E.Code, "worker-crashed");
  EXPECT_EQ(E.Attempts, 1);
  ASSERT_TRUE(E.Detail.isObj());
  EXPECT_EQ(E.Detail.getInt("attempts", -1), 1);
  EXPECT_EQ(E.Detail.getInt("draws", -1), 0);
#ifndef AUGUR_VA_SANITIZER
  // Plain builds see the raw signal; sanitizers intercept SIGSEGV and
  // exit instead, which classifies as a crash all the same.
  EXPECT_EQ(E.Detail.getInt("signal", -1), SIGSEGV);
#endif

  // The daemon took a worker death in stride.
  EXPECT_TRUE(C.ping(107).ok());
}

TEST(ServeSandbox, ClientRetryPolicyResubmitsAfterWorkerCrash) {
  // Server-side recovery fully disabled: the first submission dies with
  // `worker-crashed` (n=1 fires in its worker), and the client's own
  // retry policy resubmits; the second fork's probes are past n=1, so
  // it completes.
  SampleRequest SR = gmmRequest(/*N=*/40);
  SR.NativeCpu = true;
  SR.NumSamples = 6;

  ServerOptions O = isolatedOptions();
  O.RetryMax = 0;
  O.HedgeInterp = false;
  LiveServer L(O);
  Client C = L.connect();
  RetryPolicy Fast;
  Fast.MaxRetries = 2;
  Fast.BaseBackoffMillis = 5;
  C.setRetryPolicy(Fast);

  ScopedFaultSpec Fault("sigsegv:n=1");
  Result<Client::SampleOutcome> R = C.sample(SR, 108);
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_EQ(C.lastError().Attempts, 2);
  EXPECT_TRUE(C.lastError().Code.empty());
  expectChainsMatchDirect(R->Chains, SR);
}

TEST(ServeSandbox, BreakerQuarantinesCrashingArtifact) {
  // Two all-crash requests trip the breaker (threshold 2, retry 0);
  // the third is admitted as "degrade" and serves interpreter-only
  // without forking at all. Scrape-level acceptance: the breaker and
  // crash counters tell the whole story over /metrics.
  SampleRequest SR = gmmRequest(/*N=*/40);
  SR.NativeCpu = true;
  SR.NumSamples = 6;

  ServerOptions O = isolatedOptions();
  O.RetryMax = 0;
  O.BreakerThreshold = 2;
  O.BreakerCooldownMillis = 60000; // stays Open for the whole test
  O.MetricsPort = 0;               // ephemeral scrape endpoint
  LiveServer L(O);
  ASSERT_GT(L.S.metricsPort(), 0);
  Client C = L.connect();
  RetryPolicy NoClientRetry;
  NoClientRetry.MaxRetries = 0;
  C.setRetryPolicy(NoClientRetry);

  int64_t Crashes0 = counterOf(C, "serve/sandbox/crashes");
  int64_t Opens0 = counterOf(C, "serve/breaker/opens");
  int64_t Degraded0 = counterOf(C, "serve/sandbox/degraded");
  int64_t Forks0 = counterOf(C, "serve/sandbox/forks");

  ScopedFaultSpec Fault("sigsegv:p=1");
  // Hedged, so the client still gets its draws on every request.
  ASSERT_TRUE(C.sample(SR, 110).ok());
  ASSERT_TRUE(C.sample(SR, 111).ok());
  EXPECT_EQ(counterOf(C, "serve/sandbox/crashes") - Crashes0, 2);
  EXPECT_EQ(counterOf(C, "serve/breaker/opens") - Opens0, 1);
  int64_t ForksBefore = counterOf(C, "serve/sandbox/forks");

  Result<Client::SampleOutcome> R3 = C.sample(SR, 112);
  ASSERT_TRUE(R3.ok()) << R3.message();
  expectChainsMatchDirect(R3->Chains, SR);
  EXPECT_EQ(counterOf(C, "serve/sandbox/forks"), ForksBefore)
      << "a quarantined artifact must not fork";
  EXPECT_GE(counterOf(C, "serve/sandbox/degraded") - Degraded0, 1);
  EXPECT_GT(ForksBefore - Forks0, 0);

  // The Prometheus surface carries the same verdict.
  extern std::string serveSandboxHttpGet(int Port, const std::string &Path);
  std::string Scrape = serveSandboxHttpGet(L.S.metricsPort(), "/metrics");
  EXPECT_NE(Scrape.find("augur_serve_sandbox_crashes_total"),
            std::string::npos)
      << Scrape;
  EXPECT_NE(Scrape.find("augur_serve_breaker_opens_total"),
            std::string::npos)
      << Scrape;
  EXPECT_NE(Scrape.find("augur_serve_breaker_open_count 1"),
            std::string::npos)
      << Scrape;
}

TEST(ServeSandbox, HungWorkerIsKilledAtDeadline) {
  // worker-hang ignores SIGTERM; the parent's SIGKILL escalation must
  // free the pool slot at deadline + grace, not at some transport
  // timeout.
  SampleRequest SR = gmmRequest(/*N=*/40);
  SR.NativeCpu = true;
  SR.NumSamples = 6;
  SR.DeadlineMillis = 800;

  ServerOptions O = isolatedOptions();
  O.WorkerKillGraceMillis = 200;
  O.MaxSandboxWorkers = 1; // the hung worker holds the only slot
  LiveServer L(O);
  Client C = L.connect();
  int64_t Kills0 = counterOf(C, "serve/sandbox/deadline_kills");

  auto T0 = std::chrono::steady_clock::now();
  {
    ScopedFaultSpec Fault("worker-hang:n=1");
    Result<Client::SampleOutcome> R = C.sample(SR, 120);
    ASSERT_FALSE(R.ok());
    EXPECT_NE(R.message().find("deadline"), std::string::npos)
        << R.message();
  }
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
  EXPECT_LT(Secs, 10.0) << "kill escalation must be deadline-bounded";
  EXPECT_GE(counterOf(C, "serve/sandbox/deadline_kills") - Kills0, 1);

  // The slot came back: a healthy request on the same artifact serves.
  SR.DeadlineMillis = 0;
  Result<Client::SampleOutcome> R2 = C.sample(SR, 121);
  ASSERT_TRUE(R2.ok()) << R2.message();
  expectChainsMatchDirect(R2->Chains, SR);
}

TEST(ServeSandbox, OomWorkerIsContainedByRlimit) {
#ifdef AUGUR_VA_SANITIZER
  GTEST_SKIP() << "RLIMIT_AS is incompatible with sanitizer shadows";
#else
  // The oom fault allocates until the limit refuses, then raises
  // SIGKILL the way the kernel OOM killer would. The worker dies; the
  // daemon does not; the retry completes.
  SampleRequest SR = gmmRequest(/*N=*/40);
  SR.NativeCpu = true;
  SR.NumSamples = 6;

  ServerOptions O = isolatedOptions();
  O.RetryMax = 1;
  O.WorkerRssLimitBytes = 512ull << 20;
  LiveServer L(O);
  Client C = L.connect();
  int64_t Crashes0 = counterOf(C, "serve/sandbox/crashes");

  ScopedFaultSpec Fault("oom:n=1");
  Result<Client::SampleOutcome> R = C.sample(SR, 130);
  ASSERT_TRUE(R.ok()) << R.message();
  expectChainsMatchDirect(R->Chains, SR);
  EXPECT_GE(counterOf(C, "serve/sandbox/crashes") - Crashes0, 1);
#endif
}

TEST(ServeSandbox, ConcurrentCrashLeavesOtherClientsUnaffected) {
  // The acceptance scenario: four clients hammer two artifacts while
  // one worker takes a SIGSEGV mid-stream. Its request recovers via
  // the server-side retry; every stream completes bit-identically; the
  // daemon reaps all workers (no zombies) and the crash counters on
  // the Prometheus surface record exactly what happened.
  SampleRequest A = gmmRequest(/*N=*/40);
  A.NativeCpu = true;
  A.NumSamples = 8;
  SampleRequest B = hgmmKnownCovRequest(/*N=*/40);
  B.NativeCpu = true;
  B.NumSamples = 8;

  ServerOptions O = isolatedOptions();
  O.RetryMax = 2;
  O.Workers = 4;
  O.MetricsPort = 0;
  LiveServer L(O);
  ASSERT_GT(L.S.metricsPort(), 0);

  {
    Client Warm = L.connect();
    int64_t Crashes0 = counterOf(Warm, "serve/sandbox/crashes");

    ScopedFaultSpec Fault("sigsegv:n=12");
    std::vector<std::thread> Ts;
    std::vector<Result<Client::SampleOutcome>> Rs;
    for (int I = 0; I < 4; ++I)
      Rs.emplace_back(Status::error("unset"));
    for (int I = 0; I < 4; ++I)
      Ts.emplace_back([&, I] {
        Client C = L.connect();
        Rs[size_t(I)] = C.sample(I % 2 ? B : A, uint64_t(140 + I));
      });
    for (auto &T : Ts)
      T.join();

    for (int I = 0; I < 4; ++I) {
      ASSERT_TRUE(Rs[size_t(I)].ok()) << "client " << I << ": "
                                      << Rs[size_t(I)].message();
      expectChainsMatchDirect(Rs[size_t(I)]->Chains, I % 2 ? B : A);
    }
    // Exactly one probe fired across the whole worker herd (the shared
    // probe page makes n= deterministic even under concurrency).
    EXPECT_EQ(counterOf(Warm, "serve/sandbox/crashes") - Crashes0, 1);
  }

  // Every forked worker was reaped: no zombie children remain.
  errno = 0;
  pid_t Reaped = waitpid(-1, nullptr, WNOHANG);
  EXPECT_TRUE(Reaped == 0 || (Reaped == -1 && errno == ECHILD))
      << "unreaped sandbox worker: pid " << Reaped;

  // Prometheus surface: crash counter advanced, no breaker opened.
  extern std::string serveSandboxHttpGet(int Port, const std::string &Path);
  std::string Scrape = serveSandboxHttpGet(L.S.metricsPort(), "/metrics");
  EXPECT_NE(Scrape.find("augur_serve_sandbox_crashes_total"),
            std::string::npos)
      << Scrape;
  EXPECT_NE(Scrape.find("augur_serve_breaker_open_count 0"),
            std::string::npos)
      << Scrape;
}

//===----------------------------------------------------------------------===//
// Minimal HTTP client for the scrape assertions
//===----------------------------------------------------------------------===//

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

std::string serveSandboxHttpGet(int Port, const std::string &Path) {
  std::string Req = "GET " + Path +
                    " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  int Fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(Fd, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(uint16_t(Port));
  EXPECT_EQ(1, inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr));
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    close(Fd);
    ADD_FAILURE() << "connect to metrics port failed";
    return "";
  }
  size_t Off = 0;
  while (Off < Req.size()) {
    ssize_t W = ::send(Fd, Req.data() + Off, Req.size() - Off, 0);
    if (W <= 0)
      break;
    Off += size_t(W);
  }
  std::string Out;
  char Buf[4096];
  ssize_t R;
  while ((R = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
    Out.append(Buf, size_t(R));
  close(Fd);
  return Out;
}
