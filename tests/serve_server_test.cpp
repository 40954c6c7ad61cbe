//===- tests/serve_server_test.cpp - Inference daemon tests -----*- C++ -*-===//
//
// End-to-end tests of the always-on inference service (DESIGN.md
// section 13), run against an in-process Server on an ephemeral TCP
// port:
//
//  * control ops (ping / metrics / shutdown) and structured errors for
//    malformed frames and unsupported protocol versions,
//  * streamed draws are bit-identical to Infer::sampleChains with the
//    same seeds — serving is a transport, never a semantic change,
//  * the second request for a model runs ZERO compiler phases (counted
//    via compile/total telemetry spans) and reports cache_hit,
//  * concurrent clients driving the standard 3-model mix each get
//    complete, correct streams while every model compiles exactly once,
//  * two requests for one cached artifact sample concurrently: a
//    request blocked mid-stream does not hold up the next one,
//  * admission control: a full queue rejects with `overloaded`, an
//    expired deadline with `deadline`, and neither kills the daemon,
//  * an injected worker fault (AUGUR_FAULT_SPEC) fails only its own
//    request with `exec-error`; concurrent requests and the daemon
//    survive, and the artifact stays reusable,
//  * the observability plane (DESIGN.md section 14): GET /metrics
//    serves Prometheus text (latency summary, cache/queue gauges,
//    per-chain R-hat/ESS) including under concurrent scrape + traffic,
//    the metrics op keeps its v1 fields next to the v2 additions, the
//    access log carries unique nonzero trace ids, and done frames echo
//    the request's trace id.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "api/Infer.h"
#include "robust/FaultInject.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "serve/Workloads.h"
#include "telemetry/Telemetry.h"

using namespace augur;
using namespace augur::serve;

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

/// Number of completed compiler pipelines recorded by the process-wide
/// telemetry (the server enables it in start()). Each MCMCProgram
/// compile contributes exactly one "compile/total" span.
size_t compileSpanCount() {
  size_t N = 0;
  for (const TraceEvent &E : Recorder::global().traceEvents())
    if (E.Name == "compile/total")
      ++N;
  return N;
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

/// A raw protocol connection, for tests that need socket options and
/// bounded waits the Client does not expose. Closes on scope exit.
struct RawConn {
  int Fd = -1;

  RawConn(int Port, int RcvBufBytes) {
    Fd = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(Fd, 0);
    if (RcvBufBytes > 0)
      setsockopt(Fd, SOL_SOCKET, SO_RCVBUF, &RcvBufBytes,
                 sizeof(RcvBufBytes));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(uint16_t(Port));
    EXPECT_EQ(1, inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr));
    EXPECT_EQ(0, ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                           sizeof(Addr)));
  }
  ~RawConn() { close(Fd); }

  Status send(uint64_t Id, const SampleRequest &SR) {
    Request R;
    R.Kind = Request::Op::Sample;
    R.Id = Id;
    R.Sample = SR;
    return writeFrame(Fd, encodeRequest(R).dump());
  }

  /// Waits up to \p Millis for the next frame to start arriving.
  bool readable(int Millis) {
    pollfd P{Fd, POLLIN, 0};
    return ::poll(&P, 1, Millis) == 1;
  }

  /// Reads frames until "done", collecting draws per chain. Returns
  /// false on an error frame, EOF or a malformed draw.
  bool drain(std::vector<SampleSet> &Chains) {
    for (;;) {
      bool Eof = false;
      Result<Json> F = readJsonFrame(Fd, Eof);
      if (Eof || !F.ok())
        return false;
      std::string Type = F->getStr("type", "");
      if (Type == "done")
        return true;
      if (Type != "draw" || !addDraw(*F, Chains))
        return false;
    }
  }

  static bool addDraw(const Json &F, std::vector<SampleSet> &Chains) {
    size_t Chain = size_t(F.getInt("chain", 0));
    if (Chains.size() <= Chain)
      Chains.resize(Chain + 1);
    const Json *Values = F.find("values");
    if (!Values)
      return false;
    for (const auto &KV : Values->obj()) {
      Result<Value> V = decodeValue(KV.second);
      if (!V.ok())
        return false;
      Chains[Chain].Draws[KV.first].push_back(V.take());
    }
    return true;
  }
};

void expectSameStreams(const std::vector<SampleSet> &Served,
                       const std::vector<SampleSet> &Direct,
                       const char *What) {
  ASSERT_EQ(Served.size(), Direct.size()) << What;
  for (size_t Ch = 0; Ch < Direct.size(); ++Ch)
    for (const auto &KV : Direct[Ch].Draws) {
      auto It = Served[Ch].Draws.find(KV.first);
      ASSERT_NE(It, Served[Ch].Draws.end()) << What << " " << KV.first;
      ASSERT_EQ(It->second.size(), KV.second.size()) << What;
      for (size_t I = 0; I < KV.second.size(); ++I)
        EXPECT_TRUE(bitIdentical(It->second[I], KV.second[I]))
            << What << " chain " << Ch << " draw " << I << " of "
            << KV.first;
    }
}

} // namespace

TEST(ServeServer, PingMetricsAndShutdown) {
  LiveServer L;
  Client C = L.connect();
  ASSERT_TRUE(C.connected());
  ASSERT_TRUE(C.ping(11).ok());

  Result<Json> M = C.metrics(12);
  ASSERT_TRUE(M.ok()) << M.message();
  EXPECT_EQ(M->getStr("type", ""), "metrics");
  ASSERT_NE(M->find("counters"), nullptr);
  ASSERT_NE(M->find("cache"), nullptr);
  EXPECT_EQ(M->find("cache")->getInt("resident", -1), 0);
  EXPECT_GE(M->find("counters")->getInt("serve/requests", -1), 1);

  ASSERT_TRUE(C.shutdownServer(13).ok());
  L.S.wait(); // returns because the shutdown op flagged it
}

TEST(ServeServer, MalformedFramesGetStructuredErrors) {
  LiveServer L;

  // Raw socket: the Client class only emits well-formed frames.
  int Fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(uint16_t(L.S.port()));
  ASSERT_EQ(1, inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr));
  ASSERT_EQ(0, ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                         sizeof(Addr)));

  // A syntactically-valid frame with an unsupported schema version:
  // structured error, connection stays up.
  ASSERT_TRUE(writeFrame(Fd, "{\"v\":99,\"id\":5,\"op\":\"ping\"}").ok());
  bool Eof = false;
  Result<Json> E1 = readJsonFrame(Fd, Eof);
  ASSERT_TRUE(E1.ok()) << E1.message();
  EXPECT_EQ(E1->getStr("type", ""), "error");
  EXPECT_EQ(E1->getStr("code", ""), "bad-request");
  EXPECT_NE(E1->getStr("message", "").find("version"), std::string::npos);

  // The connection survived the bad request.
  ASSERT_TRUE(writeFrame(Fd, "{\"v\":1,\"id\":6,\"op\":\"ping\"}").ok());
  Result<Json> P = readJsonFrame(Fd, Eof);
  ASSERT_TRUE(P.ok());
  EXPECT_EQ(P->getStr("type", ""), "pong");
  EXPECT_EQ(P->getInt("id", -1), 6);

  // Unparseable JSON: one error frame, then the server drops the
  // connection (stream position is lost).
  ASSERT_TRUE(writeFrame(Fd, "{not json").ok());
  Result<Json> E2 = readJsonFrame(Fd, Eof);
  ASSERT_TRUE(E2.ok());
  EXPECT_EQ(E2->getStr("code", ""), "bad-request");
  Result<Json> End = readJsonFrame(Fd, Eof);
  EXPECT_TRUE(Eof || !End.ok());
  close(Fd);

  // The daemon itself is unaffected.
  Client C = L.connect();
  EXPECT_TRUE(C.ping().ok());
}

TEST(ServeServer, DisconnectedConnectionsAreReclaimed) {
  LiveServer L;
  // Churn connections the way a long-lived daemon sees them: connect,
  // round-trip once, disconnect. Every dead connection must leave the
  // live set (releasing its fd and parking its reader thread) — a
  // daemon that retains per-dead-client state exhausts fd/thread
  // limits under sustained traffic.
  for (int I = 0; I < 16; ++I) {
    Client C = L.connect();
    ASSERT_TRUE(C.connected());
    ASSERT_TRUE(C.ping(uint64_t(I)).ok());
  } // ~Client closes the socket; the reader sees EOF and self-reclaims
  for (int Spin = 0; Spin < 500 && L.S.connectionCount() != 0; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(L.S.connectionCount(), 0u);

  // The daemon still serves new clients after the churn.
  Client C = L.connect();
  EXPECT_TRUE(C.ping().ok());
}

TEST(ServeServer, HalfClosedClientStillReceivesItsStream) {
  SampleRequest SR = gmmRequest(/*N=*/40);
  SR.NumSamples = 6;

  LiveServer L;
  // Raw socket so we can half-close the write side, the shape of a
  // client that pipelines its requests and then shutdown(SHUT_WR)s:
  // the server's reader sees EOF while the response stream is still
  // owed, and must not tear down the write side with it.
  int Fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(uint16_t(L.S.port()));
  ASSERT_EQ(1, inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr));
  ASSERT_EQ(0, ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                         sizeof(Addr)));

  Request R;
  R.Kind = Request::Op::Sample;
  R.Id = 77;
  R.Sample = SR;
  ASSERT_TRUE(writeFrame(Fd, encodeRequest(R).dump()).ok());
  ASSERT_EQ(0, ::shutdown(Fd, SHUT_WR));

  // The full stream still arrives: every draw frame, then done.
  size_t Draws = 0;
  bool Done = false, Eof = false;
  while (!Done && !Eof) {
    Result<Json> F = readJsonFrame(Fd, Eof);
    if (Eof)
      break;
    ASSERT_TRUE(F.ok()) << F.message();
    std::string Type = F->getStr("type", "");
    ASSERT_NE(Type, "error") << F->getStr("message", "");
    if (Type == "draw")
      ++Draws;
    else if (Type == "done")
      Done = true;
  }
  EXPECT_TRUE(Done);
  EXPECT_EQ(Draws, size_t(SR.NumSamples));
  close(Fd);
}

TEST(ServeServer, StreamedDrawsBitIdenticalToDirectInfer) {
  SampleRequest SR = gmmRequest(/*N=*/60);
  SR.Seed = 0x5EED;
  SR.Chains = 2;
  SR.NumSamples = 12;
  SR.TrackLogJoint = true;

  LiveServer L;
  Client C = L.connect();
  Result<Client::SampleOutcome> Served = C.sample(SR, 21);
  ASSERT_TRUE(Served.ok()) << Served.message();
  ASSERT_EQ(Served->Chains.size(), 2u);

  std::vector<SampleSet> Direct = directChains(SR);
  ASSERT_EQ(Direct.size(), 2u);

  for (size_t Ch = 0; Ch < 2; ++Ch) {
    const SampleSet &S = Served->Chains[Ch];
    const SampleSet &D = Direct[Ch];
    ASSERT_EQ(S.size(), D.size()) << "chain " << Ch;
    ASSERT_EQ(S.Draws.size(), D.Draws.size()) << "chain " << Ch;
    for (const auto &KV : D.Draws) {
      auto It = S.Draws.find(KV.first);
      ASSERT_NE(It, S.Draws.end()) << "parameter " << KV.first;
      ASSERT_EQ(It->second.size(), KV.second.size());
      for (size_t I = 0; I < KV.second.size(); ++I)
        EXPECT_TRUE(bitIdentical(It->second[I], KV.second[I]))
            << "chain " << Ch << " draw " << I << " of " << KV.first;
    }
    for (size_t I = 0; I < D.LogJoint.size(); ++I)
      EXPECT_TRUE(bitEq(S.LogJoint[I], D.LogJoint[I]))
          << "chain " << Ch << " log-joint " << I;
  }
}

TEST(ServeServer, SecondRequestRunsZeroCompilerPhases) {
  SampleRequest SR = gmmRequest(/*N=*/40);
  SR.NumSamples = 6;

  LiveServer L;
  Client C = L.connect();

  size_t Spans0 = compileSpanCount();
  SR.Seed = 1;
  Result<Client::SampleOutcome> First = C.sample(SR, 1);
  ASSERT_TRUE(First.ok()) << First.message();
  EXPECT_FALSE(First->CacheHit);
  size_t Spans1 = compileSpanCount();
  EXPECT_EQ(Spans1, Spans0 + 1) << "first request compiles exactly once";

  // Different seed and sweep count: same artifact, zero compiles.
  SR.Seed = 2;
  SR.NumSamples = 9;
  Result<Client::SampleOutcome> Second = C.sample(SR, 2);
  ASSERT_TRUE(Second.ok()) << Second.message();
  EXPECT_TRUE(Second->CacheHit);
  EXPECT_EQ(compileSpanCount(), Spans1)
      << "cached request ran compiler phases";

  ArtifactCacheStats CS = L.S.cacheStats();
  EXPECT_EQ(CS.Misses, 1u);
  EXPECT_GE(CS.Hits, 1u);
}

TEST(ServeServer, SameModelRequestsSampleConcurrently) {
  ServerOptions O;
  O.Workers = 2;
  LiveServer L(O);
  SampleRequest Base = gmmRequest(/*N=*/200);
  Base.Record = {"z"};
  {
    // Compile and cache the artifact both requests below share.
    Client Warm = L.connect();
    Base.NumSamples = 2;
    ASSERT_TRUE(Warm.sample(Base, 1).ok());
  }

  // Request A asks for far more draws than it will ever read, and its
  // client stops reading after the first frame: A stays mid-request,
  // its draw sink soon blocked on the full socket.
  SampleRequest SA = Base;
  SA.Seed = 0xA;
  SA.NumSamples = 1000000;
  RawConn A(L.S.port(), /*RcvBufBytes=*/4096);
  ASSERT_TRUE(A.send(2, SA).ok());
  std::vector<SampleSet> ServedA;
  auto ReadDrawA = [&] {
    bool Eof = false;
    Result<Json> F = readJsonFrame(A.Fd, Eof);
    return F.ok() && F->getStr("type", "") == "draw" &&
           RawConn::addDraw(*F, ServedA);
  };
  ASSERT_TRUE(ReadDrawA());

  // Request B for the same cached artifact streams while A is still
  // running: the artifact holds no lock, each request samples its own
  // chains.
  SampleRequest SB = Base;
  SB.Seed = 0xB;
  SB.NumSamples = 5;
  RawConn B(L.S.port(), 0);
  ASSERT_TRUE(B.send(3, SB).ok());
  ASSERT_TRUE(B.readable(5000))
      << "request B waited for request A on their shared artifact";
  std::vector<SampleSet> ServedB;
  ASSERT_TRUE(B.drain(ServedB));
  expectSameStreams(ServedB, directChains(SB), "request B");

  // A resumes once its client reads again; its stream is the direct
  // one (compared on a prefix — A is abandoned when A's socket closes).
  for (int I = 1; I < 40; ++I)
    ASSERT_TRUE(ReadDrawA()) << "draw " << I << " of request A";
  SA.NumSamples = 40;
  expectSameStreams(ServedA, directChains(SA), "request A");
}

TEST(ServeServer, ConcurrentClientsAcrossTheModelMix) {
  LiveServer L;
  const std::vector<SampleRequest> Mix = standardWorkloads();
  const int Clients = 4;

  std::vector<std::thread> Threads;
  std::atomic<int> Ok{0};
  for (int Ci = 0; Ci < Clients; ++Ci)
    Threads.emplace_back([&, Ci] {
      Client C = L.connect();
      ASSERT_TRUE(C.connected());
      for (size_t W = 0; W < Mix.size(); ++W) {
        SampleRequest SR = Mix[(size_t(Ci) + W) % Mix.size()];
        SR.Seed = 100 + uint64_t(Ci);
        Result<Client::SampleOutcome> R =
            C.sample(SR, uint64_t(Ci * 10 + int(W) + 1));
        ASSERT_TRUE(R.ok())
            << "client " << Ci << " workload " << W << ": " << R.message();
        ASSERT_EQ(R->Chains.size(), 1u);
        EXPECT_EQ(R->Chains[0].size(), size_t(SR.NumSamples));
        Ok.fetch_add(1);
      }
    });
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(Ok.load(), Clients * int(Mix.size()));
  // Single-flight: every model compiled exactly once, no matter how
  // the 12 requests interleaved.
  ArtifactCacheStats CS = L.S.cacheStats();
  EXPECT_EQ(CS.Misses, uint64_t(Mix.size()));
  EXPECT_EQ(CS.Hits, uint64_t(Clients) * Mix.size() - Mix.size());
  EXPECT_EQ(CS.Failures, 0u);
}

TEST(ServeServer, ExpiredDeadlineIsAStructuredError) {
  LiveServer L;
  Client C = L.connect();

  SampleRequest SR = gmmRequest(/*N=*/40);
  SR.NumSamples = 50;
  SR.DeadlineMillis = 1; // expires long before sampling can finish
  Result<Client::SampleOutcome> R = C.sample(SR, 31);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("deadline"), std::string::npos)
      << R.message();

  // The daemon survives and the same model still serves.
  SR.DeadlineMillis = 0;
  SR.NumSamples = 5;
  Result<Client::SampleOutcome> R2 = C.sample(SR, 32);
  EXPECT_TRUE(R2.ok()) << R2.message();
}

TEST(ServeServer, FullQueueRejectsWithOverloaded) {
  ServerOptions O;
  O.Workers = 1;
  O.QueueLimit = 1;
  LiveServer L(O);

  // Occupy the single worker with a long request, confirmed running by
  // its first draw frame (so the queue is empty again).
  Client A = L.connect();
  Request Long;
  Long.Kind = Request::Op::Sample;
  Long.Id = 41;
  Long.Sample = gmmRequest(/*N=*/120);
  Long.Sample.NumSamples = 2000;
  ASSERT_TRUE(A.send(Long).ok());
  bool Eof = false;
  Result<Json> FirstDraw = A.read(Eof);
  ASSERT_TRUE(FirstDraw.ok()) << FirstDraw.message();
  ASSERT_EQ(FirstDraw->getStr("type", ""), "draw");

  // Fill the one queue slot...
  Client B = L.connect();
  Request Queued = Long;
  Queued.Id = 42;
  Queued.Sample.NumSamples = 5;
  ASSERT_TRUE(B.send(Queued).ok());

  // ...then the next submission must be rejected, not buffered. Leave
  // the reader a moment to enqueue B first.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Client C = L.connect();
  Request Rejected = Long;
  Rejected.Id = 43;
  ASSERT_TRUE(C.send(Rejected).ok());
  Result<Json> E = C.read(Eof);
  ASSERT_TRUE(E.ok()) << E.message();
  EXPECT_EQ(E->getStr("type", ""), "error");
  EXPECT_EQ(E->getStr("code", ""), "overloaded");
  EXPECT_EQ(E->getInt("id", -1), 43);

  // Clients A and B disconnect here; the worker aborts their streams on
  // the dead sockets and the server tears down cleanly (~LiveServer).
}

TEST(ServeServer, WorkerFaultFailsOnlyItsOwnRequest) {
  // The acceptance scenario: AUGUR_FAULT_SPEC injects a worker-thread
  // fault into the first pooled parallel region. Only the pooled
  // request (Threads=2) dies — with a structured exec-error — while a
  // concurrent request and the daemon itself are unaffected, and the
  // poisoned artifact is safely reused by the next request.
  ASSERT_EQ(0, setenv("AUGUR_FAULT_SPEC", "worker-fault:n=1", 1));

  LiveServer L;
  SampleRequest Pooled = gmmRequest(/*N=*/60);
  Pooled.Threads = 2;
  Pooled.NumSamples = 10;
  SampleRequest Healthy = hgmmKnownCovRequest(/*N=*/60);
  Healthy.NumSamples = 10;

  Result<Client::SampleOutcome> PooledR = Status::error("not run");
  Result<Client::SampleOutcome> HealthyR = Status::error("not run");
  std::thread TA([&] {
    Client C = L.connect();
    PooledR = C.sample(Pooled, 51);
  });
  std::thread TB([&] {
    Client C = L.connect();
    HealthyR = C.sample(Healthy, 52);
  });
  TA.join();
  TB.join();

  unsetenv("AUGUR_FAULT_SPEC");

  // The faulted request got a structured error...
  ASSERT_FALSE(PooledR.ok());
  EXPECT_NE(PooledR.message().find("exec-error"), std::string::npos)
      << PooledR.message();
  EXPECT_NE(PooledR.message().find("injected"), std::string::npos)
      << PooledR.message();
  // ...the concurrent request completed normally...
  ASSERT_TRUE(HealthyR.ok()) << HealthyR.message();
  EXPECT_EQ(HealthyR->Chains[0].size(), 10u);

  // ...and the daemon plus the cached artifact both survive: the fault
  // budget (n=1) is spent, so the retry succeeds with a cache hit and
  // zero recompiles.
  Client C = L.connect();
  ASSERT_TRUE(C.ping().ok());
  Result<Client::SampleOutcome> Retry = C.sample(Pooled, 53);
  ASSERT_TRUE(Retry.ok()) << Retry.message();
  EXPECT_TRUE(Retry->CacheHit);
  EXPECT_EQ(Retry->Chains[0].size(), 10u);

  Status Clean = robust::FaultInjector::global().configure("");
  ASSERT_TRUE(Clean.ok());
}

namespace {

/// Minimal HTTP/1.0-style client for the scrape endpoint: sends \p Req
/// verbatim and returns everything the server wrote until close.
std::string httpExchange(int Port, const std::string &Req) {
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

std::string httpGet(int Port, const std::string &Path) {
  return httpExchange(Port, "GET " + Path +
                                " HTTP/1.1\r\nHost: localhost\r\n"
                                "Connection: close\r\n\r\n");
}

} // namespace

TEST(ServeServer, MetricsEndpointServesPrometheusText) {
  ServerOptions O;
  O.MetricsPort = 0; // ephemeral
  LiveServer L(O);
  ASSERT_GT(L.S.metricsPort(), 0);

  // A bare scrape before any traffic: valid exposition with the
  // scrape-time service gauges present.
  std::string Res = httpGet(L.S.metricsPort(), "/metrics");
  ASSERT_NE(Res.find("HTTP/1.1 200 OK"), std::string::npos) << Res;
  EXPECT_NE(Res.find("text/plain; version=0.0.4"), std::string::npos)
      << Res;
  EXPECT_NE(Res.find("augur_serve_queue_depth"), std::string::npos) << Res;
  EXPECT_NE(Res.find("augur_serve_cache_hit_rate"), std::string::npos)
      << Res;
  EXPECT_NE(Res.find("augur_serve_connections_live"), std::string::npos)
      << Res;

  // Drive one diag-enabled sample request, then scrape again: latency
  // summary and per-model convergence gauges appear.
  Client C = L.connect();
  SampleRequest SR = gmmRequest(/*N=*/40);
  SR.NumSamples = 8;
  ASSERT_TRUE(C.sample(SR, 71).ok());

  Res = httpGet(L.S.metricsPort(), "/metrics");
  ASSERT_NE(Res.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(Res.find("# TYPE augur_serve_latency_ms summary"),
            std::string::npos)
      << Res;
  EXPECT_NE(Res.find("augur_serve_latency_ms{quantile=\"0.99\"}"),
            std::string::npos)
      << Res;
  EXPECT_NE(Res.find("augur_serve_requests_total"), std::string::npos)
      << Res;
  EXPECT_NE(Res.find("augur_diag_rhat{chain=\"0\",var=\"mu\""),
            std::string::npos)
      << Res;
  EXPECT_NE(Res.find("augur_diag_ess{chain=\"0\""), std::string::npos)
      << Res;
  EXPECT_NE(Res.find("augur_diag_divergences_total{chain=\"0\"}"),
            std::string::npos)
      << Res;

  // Scrapes count themselves.
  EXPECT_NE(Res.find("augur_serve_scrapes_total"), std::string::npos)
      << Res;
}

TEST(ServeServer, MetricsEndpointRejectsWrongPathAndMethod) {
  ServerOptions O;
  O.MetricsPort = 0;
  LiveServer L(O);
  ASSERT_GT(L.S.metricsPort(), 0);

  std::string NotFound = httpGet(L.S.metricsPort(), "/other");
  EXPECT_NE(NotFound.find("HTTP/1.1 404"), std::string::npos) << NotFound;

  std::string Post = httpExchange(
      L.S.metricsPort(),
      "POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(Post.find("HTTP/1.1 405"), std::string::npos) << Post;
  EXPECT_NE(Post.find("Allow: GET"), std::string::npos) << Post;

  // The daemon plane is unaffected by scrape-port abuse.
  Client C = L.connect();
  EXPECT_TRUE(C.ping().ok());
}

TEST(ServeServer, ConcurrentScrapesDuringTraffic) {
  ServerOptions O;
  O.MetricsPort = 0;
  LiveServer L(O);
  ASSERT_GT(L.S.metricsPort(), 0);

  std::atomic<bool> Stop{false};
  std::atomic<int> GoodScrapes{0};
  std::thread Scraper([&] {
    while (!Stop.load()) {
      std::string Res = httpGet(L.S.metricsPort(), "/metrics");
      if (Res.find("HTTP/1.1 200 OK") != std::string::npos)
        GoodScrapes.fetch_add(1);
    }
  });

  Client C = L.connect();
  for (int I = 0; I < 3; ++I) {
    SampleRequest SR = gmmRequest(/*N=*/40);
    SR.NumSamples = 6;
    SR.Seed = uint64_t(I);
    ASSERT_TRUE(C.sample(SR, uint64_t(80 + I)).ok());
  }
  Stop.store(true);
  Scraper.join();
  EXPECT_GT(GoodScrapes.load(), 0);
}

TEST(ServeServer, MetricsOpV2KeepsV1Fields) {
  LiveServer L;
  Client C = L.connect();
  SampleRequest SR = gmmRequest(/*N=*/40);
  SR.NumSamples = 5;
  ASSERT_TRUE(C.sample(SR, 91).ok());

  Result<Json> M = C.metrics(92);
  ASSERT_TRUE(M.ok()) << M.message();

  // Everything a v1 reader consumed is still where it was...
  EXPECT_EQ(M->getStr("type", ""), "metrics");
  ASSERT_NE(M->find("counters"), nullptr);
  ASSERT_NE(M->find("cache"), nullptr);
  EXPECT_GE(M->find("counters")->getInt("serve/requests", -1), 1);
  EXPECT_EQ(M->find("cache")->getInt("resident", -1), 1);
  EXPECT_GE(M->getInt("queue_depth", -1), 0);

  // ...and the v2 additions are strictly additive.
  EXPECT_EQ(M->getStr("schema", ""), "augur-serve-metrics-v2");
  ASSERT_NE(M->find("gauges"), nullptr);
  ASSERT_NE(M->find("histograms"), nullptr);
  const Json *H = M->find("histograms");
  const Json *Lat = H->find("serve/latency_ms");
  ASSERT_NE(Lat, nullptr) << "latency histogram missing from metrics op";
  EXPECT_GE(Lat->getInt("count", -1), 1);
  ASSERT_NE(Lat->find("p50"), nullptr);
  ASSERT_NE(Lat->find("p99"), nullptr);
  EXPECT_GT(M->getInt("buckets_per_octave", -1), 0);
}

TEST(ServeServer, AccessLogCarriesUniqueTraceIds) {
  char Dir[] = "/tmp/augur_serve_log_XXXXXX";
  ASSERT_NE(mkdtemp(Dir), nullptr);
  std::string LogPath = std::string(Dir) + "/access.log";

  {
    ServerOptions O;
    O.AccessLogPath = LogPath;
    LiveServer L(O);
    Client C = L.connect();
    ASSERT_TRUE(C.ping(1).ok());
    for (int I = 0; I < 3; ++I) {
      SampleRequest SR = gmmRequest(/*N=*/40);
      SR.NumSamples = 4;
      SR.Seed = uint64_t(I);
      ASSERT_TRUE(C.sample(SR, uint64_t(100 + I)).ok());
    }
  } // ~LiveServer stops the server and fsyncs the log

  std::ifstream In(LogPath);
  ASSERT_TRUE(In.good()) << LogPath;
  std::set<long long> Traces;
  size_t SampleLines = 0, Lines = 0;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    ++Lines;
    Result<Json> J = parseJson(Line);
    ASSERT_TRUE(J.ok()) << "unparseable access-log line: " << Line;
    EXPECT_NE(J->getStr("op", ""), "") << Line;
    EXPECT_NE(J->getStr("code", ""), "") << Line;
    EXPECT_GT(J->getInt("ts_ms", -1), 0) << Line;
    long long Trace = J->getInt("trace", -1);
    if (J->getStr("op", "") == "sample") {
      ++SampleLines;
      EXPECT_GT(Trace, 0) << Line;
      EXPECT_TRUE(Traces.insert(Trace).second)
          << "duplicate trace id: " << Line;
      EXPECT_GE(J->getInt("elapsed_ms", -1), 0) << Line;
    }
  }
  EXPECT_GE(Lines, 4u);          // ping + 3 samples at minimum
  EXPECT_EQ(SampleLines, 3u);

  std::string Cmd = std::string("rm -rf ") + Dir;
  if (std::system(Cmd.c_str()) != 0) {
  }
}

TEST(ServeServer, DoneFrameCarriesTraceId) {
  LiveServer L;
  Client C = L.connect();

  Request R;
  R.Kind = Request::Op::Sample;
  R.Id = 111;
  R.Sample = gmmRequest(/*N=*/40);
  R.Sample.NumSamples = 3;
  ASSERT_TRUE(C.send(R).ok());

  bool Eof = false, Done = false;
  long long Trace = -1;
  while (!Done && !Eof) {
    Result<Json> F = C.read(Eof);
    if (Eof)
      break;
    ASSERT_TRUE(F.ok()) << F.message();
    std::string Type = F->getStr("type", "");
    ASSERT_NE(Type, "error") << F->getStr("message", "");
    if (Type == "done") {
      Done = true;
      Trace = F->getInt("trace", -1);
    }
  }
  ASSERT_TRUE(Done);
  EXPECT_GT(Trace, 0) << "done frame must echo the request's trace id";
}

TEST(ServeServer, CompileErrorIsStructuredAndNotCached) {
  LiveServer L;
  Client C = L.connect();

  SampleRequest Bad = gmmRequest(/*N=*/30);
  Bad.Model = "model broken { this does not parse";
  Result<Client::SampleOutcome> R = C.sample(Bad, 61);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("compile-error"), std::string::npos)
      << R.message();

  // Poisoned compiles are never cached.
  EXPECT_EQ(L.S.cacheStats().Failures, 1u);
  EXPECT_EQ(L.S.cacheStats().Misses, 0u);

  // The connection and daemon both keep serving.
  SampleRequest Good = gmmRequest(/*N=*/30);
  Good.NumSamples = 4;
  Result<Client::SampleOutcome> R2 = C.sample(Good, 62);
  EXPECT_TRUE(R2.ok()) << R2.message();
}
