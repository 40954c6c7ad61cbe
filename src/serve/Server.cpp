//===- serve/Server.cpp ---------------------------------------*- C++ -*-===//

#include "serve/Server.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "api/Diagnostics.h"
#include "api/Infer.h"
#include "serve/Prometheus.h"
#include "serve/Sandbox.h"
#include "support/Format.h"
#include "support/PhiloxRNG.h"

using namespace augur;
using namespace augur::serve;

Server::Conn::~Conn() {
  if (Fd >= 0)
    ::close(Fd);
}

Server::Server(ServerOptions O)
    : Opts(std::move(O)),
      Cache(Opts.CacheCapacity < 1 ? 1 : Opts.CacheCapacity) {
  if (Opts.Workers < 1)
    Opts.Workers = 1;
  if (Opts.QueueLimit < 1)
    Opts.QueueLimit = 1;
  SupervisorOptions SU;
  // Default herd bound: one sandboxed worker per serve worker thread —
  // isolation then adds processes but no new concurrency.
  SU.MaxWorkers =
      Opts.MaxSandboxWorkers > 0 ? Opts.MaxSandboxWorkers : Opts.Workers;
  SU.BreakerThreshold = Opts.BreakerThreshold;
  SU.BreakerCooldownMillis = Opts.BreakerCooldownMillis;
  SU.CrashBackoffMillis = Opts.CrashBackoffMillis;
  SU.CrashBackoffMaxMillis = Opts.CrashBackoffMaxMillis;
  Super.reset(new Supervisor(SU));
}

Server::~Server() { stop(); }

Status Server::bindListen() {
  if (!Opts.UnixPath.empty()) {
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    if (Opts.UnixPath.size() >= sizeof(Addr.sun_path))
      return Status::error(strFormat("unix socket path too long: '%s'",
                                     Opts.UnixPath.c_str()));
    std::strcpy(Addr.sun_path, Opts.UnixPath.c_str());
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return Status::error("cannot create unix socket");
    ::unlink(Opts.UnixPath.c_str());
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) != 0)
      return Status::error(strFormat("cannot bind '%s': %s",
                                     Opts.UnixPath.c_str(),
                                     std::strerror(errno)));
  } else {
    ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return Status::error("cannot create tcp socket");
    int One = 1;
    ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(uint16_t(Opts.Port));
    if (::inet_pton(AF_INET, Opts.Host.c_str(), &Addr.sin_addr) != 1)
      return Status::error(
          strFormat("bad listen address '%s'", Opts.Host.c_str()));
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) != 0)
      return Status::error(strFormat("cannot bind %s:%d: %s",
                                     Opts.Host.c_str(), Opts.Port,
                                     std::strerror(errno)));
    sockaddr_in Bound;
    socklen_t Len = sizeof(Bound);
    if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Bound),
                      &Len) == 0)
      ResolvedPort = int(ntohs(Bound.sin_port));
  }
  if (::listen(ListenFd, 64) != 0)
    return Status::error(
        strFormat("listen failed: %s", std::strerror(errno)));
  return Status::success();
}

Status Server::bindMetrics() {
  MetricsFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (MetricsFd < 0)
    return Status::error("cannot create metrics socket");
  int One = 1;
  ::setsockopt(MetricsFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(uint16_t(Opts.MetricsPort));
  if (::inet_pton(AF_INET, Opts.MetricsHost.c_str(), &Addr.sin_addr) != 1)
    return Status::error(
        strFormat("bad metrics address '%s'", Opts.MetricsHost.c_str()));
  if (::bind(MetricsFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) != 0)
    return Status::error(strFormat("cannot bind metrics %s:%d: %s",
                                   Opts.MetricsHost.c_str(),
                                   Opts.MetricsPort, std::strerror(errno)));
  sockaddr_in Bound;
  socklen_t Len = sizeof(Bound);
  if (::getsockname(MetricsFd, reinterpret_cast<sockaddr *>(&Bound),
                    &Len) == 0)
    ResolvedMetricsPort = int(ntohs(Bound.sin_port));
  if (::listen(MetricsFd, 16) != 0)
    return Status::error(
        strFormat("metrics listen failed: %s", std::strerror(errno)));
  return Status::success();
}

Status Server::start() {
  if (Started)
    return Status::error("server already started");
  // A disconnecting client must error the in-flight write, not kill the
  // daemon.
  ::signal(SIGPIPE, SIG_IGN);
  // The ops surface (latency histograms, serve counters, compiler phase
  // spans) needs the recorder on. SweepLogJoint stays off so serving a
  // request costs no extra likelihood evaluations; telemetry never
  // consumes RNG, so streams stay bit-identical to direct sampling.
  TelemetryConfig TC;
  TC.Enabled = true;
  TC.SweepLogJoint = false;
  TC.OutDir = Opts.TelemetryDir.empty() ? "." : Opts.TelemetryDir;
  ensureGlobalTelemetry(TC);
  AUGUR_RETURN_IF_ERROR(bindListen());
  if (Opts.MetricsPort >= 0)
    AUGUR_RETURN_IF_ERROR(bindMetrics());
  if (!Opts.AccessLogPath.empty()) {
    AccessLog = std::fopen(Opts.AccessLogPath.c_str(), "a");
    if (!AccessLog)
      return Status::error(strFormat("cannot open access log '%s': %s",
                                     Opts.AccessLogPath.c_str(),
                                     std::strerror(errno)));
  }
  if (::pipe(WakePipe) != 0)
    return Status::error("cannot create shutdown pipe");
  Started = true;
  AcceptThread = std::thread([this] { acceptLoop(); });
  if (MetricsFd >= 0)
    MetricsThread = std::thread([this] { metricsLoop(); });
  for (int I = 0; I < Opts.Workers; ++I)
    WorkerThreads.emplace_back([this] { workerLoop(); });
  return Status::success();
}

void Server::wait() {
  std::unique_lock<std::mutex> Lock(StateMu);
  StateCv.wait(Lock, [&] { return ShutdownRequested; });
}

void Server::requestStop() {
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Stopping = true;
  }
  QueueCv.notify_all();
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    ShutdownRequested = true;
  }
  StateCv.notify_all();
  if (WakePipe[1] >= 0) {
    char B = 1;
    ssize_t Ignored = ::write(WakePipe[1], &B, 1);
    (void)Ignored;
  }
}

void Server::stop() {
  if (!Started || Stopped)
    return;
  Stopped = true;
  requestStop();
  // Workers first: queued jobs drain and their responses flush before
  // any connection is torn down. Bounded even against a stalled client
  // because every client socket carries SO_SNDTIMEO (acceptLoop), so a
  // blocked response write errors out instead of wedging a worker.
  for (auto &T : WorkerThreads)
    T.join();
  AcceptThread.join();
  if (MetricsThread.joinable())
    MetricsThread.join();
  // Unblock readers mid-read, then collect every outstanding reader
  // handle: live readers park theirs in DoneReaders as they exit, and
  // already-exited readers are parked there too.
  std::vector<std::thread> Readers;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (auto &C : Conns) {
      if (C->Fd >= 0)
        ::shutdown(C->Fd, SHUT_RDWR);
      if (C->Reader.joinable())
        Readers.push_back(std::move(C->Reader));
    }
    Readers.insert(Readers.end(),
                   std::make_move_iterator(DoneReaders.begin()),
                   std::make_move_iterator(DoneReaders.end()));
    DoneReaders.clear();
  }
  for (auto &T : Readers)
    if (T.joinable())
      T.join();
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    Conns.clear();
    DoneReaders.clear(); // moved-from handles parked by exiting readers
  }
  if (ListenFd >= 0)
    ::close(ListenFd);
  if (MetricsFd >= 0)
    ::close(MetricsFd);
  for (int I = 0; I < 2; ++I)
    if (WakePipe[I] >= 0)
      ::close(WakePipe[I]);
  if (!Opts.UnixPath.empty())
    ::unlink(Opts.UnixPath.c_str());
  if (AccessLog) {
    // Lines were flushed as written; make the tail durable before the
    // daemon exits (the shutdown contract of tools/augur_serve).
    std::lock_guard<std::mutex> Lock(AccessMu);
    std::fflush(AccessLog);
    ::fsync(::fileno(AccessLog));
    std::fclose(AccessLog);
    AccessLog = nullptr;
  }
}

/// Joins reader threads whose connections have already exited. Called
/// from the accept thread between accepts and from stop(), so a
/// long-lived daemon's thread count tracks live connections, not total
/// connections ever served.
void Server::reapReaders() {
  std::vector<std::thread> Done;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    Done.swap(DoneReaders);
  }
  for (auto &T : Done)
    if (T.joinable())
      T.join();
}

size_t Server::connectionCount() {
  std::lock_guard<std::mutex> Lock(ConnMu);
  return Conns.size();
}

void Server::acceptLoop() {
  for (;;) {
    pollfd P[2] = {{ListenFd, POLLIN, 0}, {WakePipe[0], POLLIN, 0}};
    if (::poll(P, 2, -1) < 0) {
      if (errno == EINTR)
        continue;
      return;
    }
    reapReaders();
    if (P[1].revents != 0)
      return; // shutdown byte
    if ((P[0].revents & POLLIN) == 0)
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    if (Opts.UnixPath.empty()) {
      // The response is a stream of small frames ending in a small done
      // frame; with Nagle on, that tail segment sits behind the peer's
      // delayed ACK (~40ms added to every request).
      int One = 1;
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    }
    if (Opts.WriteTimeoutMillis > 0) {
      // A client that stops reading must not wedge a worker in a
      // blocking write forever; see ServerOptions::WriteTimeoutMillis.
      timeval TV;
      TV.tv_sec = Opts.WriteTimeoutMillis / 1000;
      TV.tv_usec = suseconds_t((Opts.WriteTimeoutMillis % 1000) * 1000);
      ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &TV, sizeof(TV));
    }
    auto C = std::make_shared<Conn>(Fd);
    {
      // Holding ConnMu across the thread start so the reader's exit
      // path (which moves C->Reader under the same lock) cannot race
      // the assignment.
      std::lock_guard<std::mutex> Lock(ConnMu);
      Conns.push_back(C);
      C->Reader = std::thread([this, C] { connectionLoop(C); });
    }
    Recorder::global().count("serve/connections");
  }
}

//===----------------------------------------------------------------------===//
// Observability plane: /metrics scrape endpoint + access log
//===----------------------------------------------------------------------===//

/// Accept loop of the HTTP /metrics listener. Shares the shutdown
/// self-pipe with acceptLoop: neither ever reads the wake byte, so the
/// level-triggered POLLIN wakes both loops.
void Server::metricsLoop() {
  for (;;) {
    pollfd P[2] = {{MetricsFd, POLLIN, 0}, {WakePipe[0], POLLIN, 0}};
    if (::poll(P, 2, -1) < 0) {
      if (errno == EINTR)
        continue;
      return;
    }
    if (P[1].revents != 0)
      return; // shutdown byte
    if ((P[0].revents & POLLIN) == 0)
      continue;
    int Fd = ::accept(MetricsFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    // Scrapes are short one-shot requests; serving them inline keeps
    // the listener single-threaded and bounded. A slow scraper is cut
    // off by the socket timeouts rather than blocking shutdown.
    serveMetricsConn(Fd);
    ::close(Fd);
  }
}

/// Minimal HTTP/1.x exchange: read the request head, answer one GET
/// /metrics with the exposition document, anything else with 404/405,
/// close. No keep-alive — Prometheus re-connects per scrape by default
/// and a one-shot connection cannot wedge the listener.
void Server::serveMetricsConn(int Fd) {
  timeval TV;
  TV.tv_sec = 5;
  TV.tv_usec = 0;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV));
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &TV, sizeof(TV));

  std::string Head;
  char Buf[1024];
  while (Head.find("\r\n\r\n") == std::string::npos &&
         Head.find("\n\n") == std::string::npos && Head.size() < 8192) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N <= 0)
      return; // timeout or disconnect mid-request
    Head.append(Buf, size_t(N));
  }
  size_t LineEnd = Head.find_first_of("\r\n");
  std::string ReqLine =
      LineEnd == std::string::npos ? Head : Head.substr(0, LineEnd);
  size_t Sp1 = ReqLine.find(' ');
  size_t Sp2 = ReqLine.find(' ', Sp1 == std::string::npos ? 0 : Sp1 + 1);
  std::string Method =
      Sp1 == std::string::npos ? ReqLine : ReqLine.substr(0, Sp1);
  std::string Path = (Sp1 == std::string::npos || Sp2 == std::string::npos)
                         ? std::string()
                         : ReqLine.substr(Sp1 + 1, Sp2 - Sp1 - 1);
  // Ignore a query string: "GET /metrics?x=y" still scrapes.
  size_t Query = Path.find('?');
  if (Query != std::string::npos)
    Path.resize(Query);

  std::string Response;
  if (Method != "GET") {
    Response = "HTTP/1.1 405 Method Not Allowed\r\n"
               "Allow: GET\r\nContent-Length: 0\r\n"
               "Connection: close\r\n\r\n";
  } else if (Path != "/metrics") {
    Response = "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n"
               "Connection: close\r\n\r\n";
  } else {
    Recorder::global().count("serve/scrapes");
    std::string Body = buildPrometheusText();
    Response = strFormat(
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: %zu\r\nConnection: close\r\n\r\n",
        Body.size());
    Response += Body;
  }
  size_t Off = 0;
  while (Off < Response.size()) {
    ssize_t N = ::send(Fd, Response.data() + Off, Response.size() - Off,
                       MSG_NOSIGNAL);
    if (N <= 0)
      return;
    Off += size_t(N);
  }
}

std::string Server::buildPrometheusText() {
  Recorder &Rec = Recorder::global();
  PromSnapshot S;
  S.Counters = Rec.counters();
  S.Hists = Rec.histograms();
  S.Gauges = Rec.gauges();
  // Live service state, sampled at scrape time so the scrape is always
  // current even when no request has run since the last gauge write.
  ArtifactCacheStats CS = Cache.stats();
  S.Counters["serve/cache/hits"] = CS.Hits;
  S.Counters["serve/cache/misses"] = CS.Misses;
  S.Counters["serve/cache/evictions"] = CS.Evictions;
  S.Counters["serve/cache/failures"] = CS.Failures;
  S.Counters["serve/cache/coalesced"] = CS.Coalesced;
  S.Gauges["serve/cache_resident"] = double(Cache.size());
  uint64_t Lookups = CS.Hits + CS.Misses;
  S.Gauges["serve/cache_hit_rate"] =
      Lookups ? double(CS.Hits) / double(Lookups) : 0.0;
  S.Gauges["serve/queue_depth"] = double(queueDepth());
  S.Gauges["serve/connections_live"] = double(connectionCount());
  Supervisor::Stats SS = Super->stats();
  S.Gauges["serve/sandbox/workers_live"] = double(SS.WorkersLive);
  S.Gauges["serve/breaker/open_count"] = double(SS.BreakersOpen);
  return renderPrometheusText(S);
}

void Server::logAccess(const char *Op, uint64_t Id, uint64_t Trace,
                       const char *Code, double ElapsedMillis,
                       int CacheHit) {
  if (!AccessLog)
    return;
  uint64_t TsMs =
      uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::system_clock::now().time_since_epoch())
                   .count());
  std::string Line = strFormat(
      "{\"ts_ms\":%llu,\"trace\":%llu,\"id\":%llu,\"op\":\"%s\","
      "\"code\":\"%s\",\"elapsed_ms\":%.3f",
      (unsigned long long)TsMs, (unsigned long long)Trace,
      (unsigned long long)Id, Op, Code, ElapsedMillis);
  if (CacheHit >= 0)
    Line += strFormat(",\"cache_hit\":%s", CacheHit ? "true" : "false");
  Line += "}\n";
  std::lock_guard<std::mutex> Lock(AccessMu);
  if (!AccessLog)
    return; // raced stop()
  std::fwrite(Line.data(), 1, Line.size(), AccessLog);
  // Flushed per line so operators can tail the log live; durability
  // (fsync) is settled once at shutdown.
  std::fflush(AccessLog);
}

size_t Server::queueDepth() {
  std::lock_guard<std::mutex> Lock(QueueMu);
  return Queue.size();
}

void Server::sendFrame(Conn &C, const Json &J) {
  std::lock_guard<std::mutex> Lock(C.WriteMu);
  Status St = writeJsonFrame(C.Fd, J);
  if (!St.ok())
    C.Alive.store(false, std::memory_order_relaxed);
}

void Server::sendError(Conn &C, uint64_t Id, ErrorCode Code,
                       const std::string &Message, uint64_t Trace) {
  Recorder::global().count("serve/errors");
  Recorder::global().count(
      strFormat("serve/errors/%s", errorCodeName(Code)));
  sendFrame(C, errorFrame(Id, Code, Message, Trace));
}

/// Sparse bucket array [[index,count],...] for the metrics-op v2
/// payload (mirrors telemetry's metrics.json encoding).
static Json sparseBuckets(const std::vector<uint64_t> &B) {
  Json A = Json::array();
  for (size_t I = 0; I < B.size(); ++I) {
    if (B[I] == 0)
      continue;
    Json Pair = Json::array();
    Pair.push(Json::integer(int64_t(I)));
    Pair.push(Json::integer(int64_t(B[I])));
    A.push(std::move(Pair));
  }
  return A;
}

Json Server::metricsFrame(const Request &Req) {
  Recorder &Rec = Recorder::global();
  Json J = Json::object();
  J.set("v", Json::integer(ProtocolVersion));
  J.set("id", Json::integer(int64_t(Req.Id)));
  J.set("type", Json::str("metrics"));
  if (Req.Trace)
    J.set("trace", Json::integer(int64_t(Req.Trace)));
  // v2 payload: strictly additive over v1 — every v1 field keeps its
  // name, type, and position semantics, so v1 readers keep working.
  J.set("schema", Json::str("augur-serve-metrics-v2"));
  J.set("buckets_per_octave",
        Json::integer(HistogramStats::SubBucketsPerOctave));
  J.set("bucket_min_log2", Json::integer(HistogramStats::BucketMinLog2));
  Json Counters = Json::object();
  for (const auto &KV : Rec.counters())
    Counters.set(KV.first, Json::integer(int64_t(KV.second)));
  J.set("counters", std::move(Counters));
  Json Gauges = Json::object();
  for (const auto &KV : Rec.gauges())
    Gauges.set(KV.first, Json::real(KV.second));
  J.set("gauges", std::move(Gauges));
  Json Hists = Json::object();
  for (const auto &KV : Rec.histograms()) {
    const HistogramStats &HS = KV.second;
    Json H = Json::object();
    H.set("count", Json::integer(int64_t(HS.Count)));
    H.set("mean", Json::real(HS.mean()));
    H.set("min", Json::real(HS.Min));
    H.set("max", Json::real(HS.Max));
    H.set("p50", Json::real(HS.p50()));
    H.set("p95", Json::real(HS.p95()));
    H.set("p99", Json::real(HS.p99()));
    H.set("zero", Json::integer(int64_t(HS.ZeroCount)));
    H.set("pos", sparseBuckets(HS.Pos));
    H.set("neg", sparseBuckets(HS.Neg));
    Hists.set(KV.first, std::move(H));
  }
  J.set("histograms", std::move(Hists));
  ArtifactCacheStats CS = Cache.stats();
  Json C = Json::object();
  C.set("hits", Json::integer(int64_t(CS.Hits)));
  C.set("misses", Json::integer(int64_t(CS.Misses)));
  C.set("evictions", Json::integer(int64_t(CS.Evictions)));
  C.set("failures", Json::integer(int64_t(CS.Failures)));
  C.set("coalesced", Json::integer(int64_t(CS.Coalesced)));
  C.set("resident", Json::integer(int64_t(Cache.size())));
  J.set("cache", std::move(C));
  J.set("queue_depth", Json::integer(int64_t(queueDepth())));
  return J;
}

void Server::connectionLoop(std::shared_ptr<Conn> C) {
  for (;;) {
    bool Eof = false;
    Result<Json> FrameR = readJsonFrame(C->Fd, Eof);
    if (Eof)
      break;
    if (!FrameR.ok()) {
      // Torn frame / unparseable payload: the stream position is lost,
      // so answer once and drop the connection.
      sendError(*C, 0, ErrorCode::BadRequest, FrameR.message());
      logAccess("bad-frame", 0, 0, "bad-request", 0.0, -1);
      break;
    }
    Result<Request> ReqR = decodeRequest(*FrameR);
    if (!ReqR.ok()) {
      // Framing is intact, only this request is bad: answer and keep
      // the connection.
      uint64_t BadId = uint64_t(FrameR->getInt("id", 0));
      sendError(*C, BadId, ErrorCode::BadRequest, ReqR.message());
      logAccess("bad-request", BadId, 0, "bad-request", 0.0, -1);
      continue;
    }
    Request Req = ReqR.take();
    Recorder::global().count("serve/requests");
    switch (Req.Kind) {
    case Request::Op::Ping:
      sendFrame(*C, pongFrame(Req.Id));
      logAccess("ping", Req.Id, Req.Trace, "ok", 0.0, -1);
      break;
    case Request::Op::Metrics:
      sendFrame(*C, metricsFrame(Req));
      logAccess("metrics", Req.Id, Req.Trace, "ok", 0.0, -1);
      break;
    case Request::Op::Shutdown:
      sendFrame(*C, byeFrame(Req.Id));
      logAccess("shutdown", Req.Id, Req.Trace, "ok", 0.0, -1);
      requestStop();
      break;
    case Request::Op::Sample: {
      Job J;
      J.Req = std::move(Req);
      J.C = C;
      if (J.Req.Sample.DeadlineMillis > 0) {
        J.HasDeadline = true;
        J.DeadlineAt = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(J.Req.Sample.DeadlineMillis);
      }
      uint64_t Id = J.Req.Id;
      uint64_t Trace = J.Req.Trace;
      bool Admitted = false, Down = false;
      {
        std::lock_guard<std::mutex> Lock(QueueMu);
        Down = Stopping;
        if (!Down && Queue.size() < Opts.QueueLimit) {
          Queue.push_back(std::move(J));
          Admitted = true;
          Recorder::global().gauge("serve/queue_depth",
                                   double(Queue.size()));
        }
      }
      if (Admitted)
        QueueCv.notify_one();
      else if (Down) {
        sendError(*C, Id, ErrorCode::ShuttingDown,
                  "daemon is shutting down", Trace);
        logAccess("sample", Id, Trace, "shutting-down", 0.0, -1);
      } else {
        sendError(*C, Id, ErrorCode::Overloaded,
                  strFormat("queue full (%zu jobs); retry later",
                            Opts.QueueLimit),
                  Trace);
        logAccess("sample", Id, Trace, "overloaded", 0.0, -1);
      }
      break;
    }
    }
  }
  // Read side is done. SHUT_RD only: a client that half-closes its
  // write side after sending requests is still reading, so in-flight
  // response streams (workers holding a lease on this Conn) must keep
  // flowing; the fd itself closes — sending FIN — when the last
  // shared_ptr drops. Alive stays true for the same reason.
  ::shutdown(C->Fd, SHUT_RD);
  {
    // Reclaim this connection's slot: drop it from the live set (so
    // the daemon's footprint tracks live clients, not clients ever
    // seen) and park the thread handle for the accept thread to join.
    std::lock_guard<std::mutex> Lock(ConnMu);
    Conns.erase(std::remove(Conns.begin(), Conns.end(), C), Conns.end());
    if (C->Reader.joinable())
      DoneReaders.push_back(std::move(C->Reader));
  }
}

void Server::workerLoop() {
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueCv.wait(Lock, [&] { return Stopping || !Queue.empty(); });
      if (Queue.empty()) // Stopping and fully drained
        return;
      J = std::move(Queue.front());
      Queue.pop_front();
      Recorder::global().gauge("serve/queue_depth", double(Queue.size()));
    }
    serveSample(std::move(J));
  }
}

/// Runs every chain of a sample job on fresh chains of the artifact,
/// streaming draws, then sends the job's terminal frame (the in-process
/// execution path: isolation off, the interpreter backend, or the hedge
/// fallback after worker crashes). Draws already forwarded by a
/// sandboxed attempt — tracked by \p Cur — are skipped: the chain loop
/// replays bit-identical streams, so the client sees one seamless
/// sequence.
void Server::serveInProcess(Job &J, const std::shared_ptr<const Artifact> &A,
                            StreamCursor &Cur, bool CompiledHere,
                            uint64_t T0) {
  const SampleRequest &SR = J.Req.Sample;
  const uint64_t Trace = J.Req.Trace;
  Recorder &Rec = Recorder::global();
  Status St;
  {
    ScopedSpan SampleSpan(Rec, "serve/sample", "serve");
    SampleSpan.arg("trace_id", double(Trace));
    St = runRequestChains(
        A, SR,
        [&](int C, uint64_t Index, const std::vector<std::string> &Names,
            const std::vector<const Value *> &Row,
            double LogJoint) -> Status {
          if (J.HasDeadline &&
              std::chrono::steady_clock::now() >= J.DeadlineAt)
            return Status::error("deadline exceeded");
          if (!J.C->Alive.load(std::memory_order_relaxed))
            return Status::error("client disconnected");
          if (!Cur.shouldForward(C, int64_t(Index)))
            return Status::success(); // already streamed by a dead worker
          Json F = drawFrame(J.Req.Id, C, Index, Names, Row, LogJoint);
          std::lock_guard<std::mutex> Lock(J.C->WriteMu);
          Status WSt = writeJsonFrame(J.C->Fd, F);
          if (!WSt.ok()) {
            J.C->Alive.store(false, std::memory_order_relaxed);
            return Status::error("client disconnected");
          }
          Cur.advance(C);
          Rec.count("serve/draws");
          return Status::success();
        });
  }
  double Ms = double(Recorder::nowNanos() - T0) / 1e6;
  Rec.observe("serve/latency_ms", Ms);
  if (!St.ok()) {
    ErrorCode Code = ErrorCode::ExecError;
    if (J.HasDeadline && std::chrono::steady_clock::now() >= J.DeadlineAt)
      Code = ErrorCode::Deadline;
    sendError(*J.C, J.Req.Id, Code, St.message(), Trace);
    logAccess("sample", J.Req.Id, Trace, errorCodeName(Code), Ms,
              CompiledHere ? 0 : 1);
    return;
  }
  sendFrame(*J.C, doneFrame(J.Req.Id, SR.Chains < 1 ? 1 : SR.Chains,
                            SR.NumSamples, /*CacheHit=*/!CompiledHere, Ms,
                            Trace));
  logAccess("sample", J.Req.Id, Trace, "ok", Ms, CompiledHere ? 0 : 1);
}

bool Server::sandboxEligible(const SampleRequest &SR) const {
#ifdef _WIN32
  (void)SR;
  return false;
#else
  switch (Opts.Isolation) {
  case ServerOptions::IsolationMode::Off:
    return false;
  case ServerOptions::IsolationMode::Native:
    // The interpreter runs no untrusted machine code; only dlopen'd
    // native artifacts earn the fork.
    return SR.NativeCpu;
  case ServerOptions::IsolationMode::All:
    return true;
  }
  return false;
#endif
}

/// Republishes a worker's end-of-chain convergence diagnostics as
/// chain<k>/diag/* gauges. The worker's own recorder is disabled after
/// the fork (its memory is about to vanish), so the diagnostics ride
/// the status record and land in the parent's registry here — the
/// /metrics surface is identical to the in-process path's.
void Server::publishWorkerDiag(const Json &Diag) {
  if (!Opts.Diag || !Diag.isObj())
    return;
  Recorder &Rec = Recorder::global();
  for (const auto &ChainKV : Diag.obj()) {
    int Chain = std::atoi(ChainKV.first.c_str());
    if (const Json *R = ChainKV.second.find("rhat"))
      for (const auto &KV : R->obj())
        Rec.gauge(strFormat("chain%d/diag/rhat/%s", Chain, KV.first.c_str()),
                  KV.second.asReal());
    if (const Json *E = ChainKV.second.find("ess"))
      for (const auto &KV : E->obj())
        Rec.gauge(strFormat("chain%d/diag/ess/%s", Chain, KV.first.c_str()),
                  KV.second.asReal());
  }
}

/// The crash-isolated serving policy (DESIGN.md section 17): breaker
/// admission, bounded worker herd, fork + relay, per-request retries
/// with exponential backoff, and the interpreter hedge. The worker
/// samples fresh chains of a private copy-on-write image of the
/// artifact, so a crashed worker cannot have corrupted the cached copy.
void Server::serveSampleIsolated(Job J, std::shared_ptr<const Artifact> Art,
                                 uint64_t Key, bool CompiledHere,
                                 uint64_t T0) {
  const SampleRequest &SR = J.Req.Sample;
  const uint64_t Trace = J.Req.Trace;
  Recorder &Rec = Recorder::global();
  int Chains = SR.Chains < 1 ? 1 : SR.Chains;
  StreamCursor Cur(Chains);

  auto elapsedMs = [&] { return double(Recorder::nowNanos() - T0) / 1e6; };
  auto finishOk = [&] {
    double Ms = elapsedMs();
    Rec.observe("serve/latency_ms", Ms);
    sendFrame(*J.C, doneFrame(J.Req.Id, Chains, SR.NumSamples,
                              /*CacheHit=*/!CompiledHere, Ms, Trace));
    logAccess("sample", J.Req.Id, Trace, "ok", Ms, CompiledHere ? 0 : 1);
  };
  auto finishErr = [&](ErrorCode Code, const std::string &Message,
                       Json Detail) {
    double Ms = elapsedMs();
    Rec.observe("serve/latency_ms", Ms);
    Rec.count("serve/errors");
    Rec.count(strFormat("serve/errors/%s", errorCodeName(Code)));
    sendFrame(*J.C,
              errorFrame(J.Req.Id, Code, Message, Trace, std::move(Detail)));
    logAccess("sample", J.Req.Id, Trace, errorCodeName(Code), Ms,
              CompiledHere ? 0 : 1);
  };
  auto pastDeadline = [&] {
    return J.HasDeadline && std::chrono::steady_clock::now() >= J.DeadlineAt;
  };

  Admission A = Super->admit(Key);
  int Crashes = 0, LastSignal = 0;
  std::string CrashMsg;

  if (!A.Degrade) {
    // Crash-storm fork backoff: recent worker deaths push fork
    // eligibility into the future; a deadline that cannot survive the
    // wait fails fast instead of sleeping through it.
    if (A.WaitMillis > 0) {
      auto Until = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(A.WaitMillis);
      if (J.HasDeadline && Until >= J.DeadlineAt) {
        if (A.Trial)
          Super->abandonTrial(Key);
        finishErr(ErrorCode::Deadline,
                  "deadline would expire during crash backoff", Json());
        return;
      }
      std::this_thread::sleep_until(Until);
    }
    if (!Super->acquireSlot(J.HasDeadline, J.DeadlineAt)) {
      if (A.Trial)
        Super->abandonTrial(Key);
      finishErr(ErrorCode::Deadline,
                "deadline expired waiting for a sandbox worker slot",
                Json());
      return;
    }

    // A half-open trial gets exactly one attempt: its death must reopen
    // the breaker, not burn the retry budget re-probing a bad artifact.
    int MaxAttempts = A.Trial ? 1 : 1 + (Opts.RetryMax < 0 ? 0 : Opts.RetryMax);
    for (int Att = 0; Att < MaxAttempts; ++Att) {
      if (Att > 0) {
        int64_t BackMs = (Opts.RetryBackoffMillis < 0
                              ? 0
                              : Opts.RetryBackoffMillis)
                         << (Att - 1 < 6 ? Att - 1 : 6);
        auto Until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(BackMs);
        if (J.HasDeadline && Until >= J.DeadlineAt)
          break; // no time left to retry; fall through to the hedge
        Rec.count("serve/sandbox/retries");
        std::this_thread::sleep_until(Until);
      }
      Rec.count("serve/sandbox/forks");
      SandboxOptions SO;
      SO.RssLimitBytes = Opts.WorkerRssLimitBytes;
      SO.CpuLimitSecs = Opts.WorkerCpuLimitSecs;
      SO.HasDeadline = J.HasDeadline;
      SO.DeadlineAt = J.DeadlineAt;
      SO.KillGraceMillis = Opts.WorkerKillGraceMillis;
      SO.RingBytes = Opts.SandboxRingBytes;
      SO.ForcePipe = Opts.SandboxPipe;
      Result<WorkerResult> WRr = runSandboxed(
          Art, SR, J.Req.Id, SO, Cur,
          [&](const std::string &Frame) -> Status {
            std::lock_guard<std::mutex> Lock(J.C->WriteMu);
            Status St = writeFrame(J.C->Fd, Frame);
            if (!St.ok()) {
              J.C->Alive.store(false, std::memory_order_relaxed);
              return St;
            }
            Rec.count("serve/draws");
            return Status::success();
          },
          [&] { return J.C->Alive.load(std::memory_order_relaxed); });
      if (!WRr.ok()) {
        // Parent-side setup failure (fork/pipe/mmap exhaustion): not a
        // worker crash — the artifact is blameless. Hedge in-process.
        if (A.Trial)
          Super->abandonTrial(Key);
        CrashMsg = WRr.message();
        break;
      }
      WorkerResult WR = WRr.take();
      switch (WR.End) {
      case WorkerEnd::Completed:
        Super->reportOutcome(Key, /*Crashed=*/false, A.Trial);
        Super->releaseSlot();
        publishWorkerDiag(WR.Diag);
        finishOk();
        return;
      case WorkerEnd::Failed: {
        // Structured failure: the worker executed safely and reported a
        // result; retrying or hedging would replay the same failure.
        Super->reportOutcome(Key, /*Crashed=*/false, A.Trial);
        Super->releaseSlot();
        finishErr(WR.Code == "deadline" ? ErrorCode::Deadline
                                        : ErrorCode::ExecError,
                  WR.Message, Json());
        return;
      }
      case WorkerEnd::DeadlineKilled:
        Rec.count("serve/sandbox/deadline_kills");
        Super->reportOutcome(Key, /*Crashed=*/false, A.Trial);
        Super->releaseSlot();
        finishErr(ErrorCode::Deadline, WR.Message, Json());
        return;
      case WorkerEnd::ClientGone:
        Rec.count("serve/sandbox/client_aborts");
        if (A.Trial)
          Super->abandonTrial(Key);
        Super->releaseSlot();
        logAccess("sample", J.Req.Id, Trace, "client-gone", elapsedMs(),
                  CompiledHere ? 0 : 1);
        return;
      case WorkerEnd::Crashed:
        ++Crashes;
        LastSignal = WR.Signal;
        CrashMsg = WR.Message;
        Rec.count("serve/sandbox/crashes");
        if (WR.Signal)
          Rec.count(strFormat("serve/sandbox/crash_sig/%d", WR.Signal));
        Super->reportOutcome(Key, /*Crashed=*/true, A.Trial);
        break; // retry (next loop iteration) or fall through to hedge
      }
    }
    Super->releaseSlot();
  }

  if (A.Degrade)
    Rec.count("serve/sandbox/degraded");
  if (pastDeadline()) {
    finishErr(ErrorCode::Deadline, "deadline expired", Json());
    return;
  }
  if (!A.Degrade && !Opts.HedgeInterp) {
    Json Detail = Json::object();
    Detail.set("signal", Json::integer(LastSignal));
    Detail.set("attempts", Json::integer(Crashes));
    Detail.set("draws", Json::integer(int64_t(Cur.totalForwarded())));
    finishErr(ErrorCode::WorkerCrashed,
              CrashMsg.empty() ? "sandbox worker crashed" : CrashMsg,
              std::move(Detail));
    return;
  }
  if (!A.Degrade)
    Rec.count("serve/sandbox/hedges");

  // Hedge / quarantine fallback: replay the request on the in-process
  // interpreter. Sound because both backends stream bit-identical
  // draws; the cursor drops whatever prefix the dead workers already
  // delivered. The interpreter artifact is a separate cache entry (the
  // fingerprint covers the backend), so the crashing native image stays
  // quarantined while its interpreted twin serves.
  SampleRequest SR2 = SR;
  SR2.NativeCpu = false;
  bool HedgeCompiled = false;
  Result<std::shared_ptr<const Artifact>> HedgeR =
      acquireArtifact(SR2, artifactKey(SR2), Trace, HedgeCompiled);
  if (!HedgeR.ok()) {
    if (Crashes > 0) {
      Json Detail = Json::object();
      Detail.set("signal", Json::integer(LastSignal));
      Detail.set("attempts", Json::integer(Crashes));
      Detail.set("draws", Json::integer(int64_t(Cur.totalForwarded())));
      Detail.set("hedge_error", Json::str(HedgeR.message()));
      finishErr(ErrorCode::WorkerCrashed,
                CrashMsg.empty() ? "sandbox worker crashed" : CrashMsg,
                std::move(Detail));
    } else {
      finishErr(ErrorCode::CompileError, HedgeR.message(), Json());
    }
    return;
  }
  serveInProcess(J, HedgeR.value(), Cur, CompiledHere, T0);
}

Result<std::shared_ptr<const Artifact>>
Server::acquireArtifact(const SampleRequest &SR, uint64_t Key, uint64_t Trace,
                        bool &CompiledHere) {
  return Cache.acquire(
      Key, [&]() -> Result<std::shared_ptr<const Artifact>> {
        CompiledHere = true;
        ScopedSpan CompileSpan(Recorder::global(), "serve/compile", "serve");
        CompileSpan.arg("trace_id", double(Trace));
        CompileOptions CO;
        CO.NativeCpu = SR.NativeCpu;
        CO.UserSchedule = SR.Schedule;
        CO.Par.NumThreads = SR.Threads;
        // Served artifacts carry the streaming diagnostics plane so
        // /metrics publishes per-variable R-hat/ESS for every hot model
        // (AUGUR_DIAG still overrides either way).
        CO.Diag.Enabled = Opts.Diag;
        return Compiler::compile(SR.Model, CO, SR.Args, SR.Data);
      });
}

void Server::serveSample(Job J) {
  const SampleRequest &SR = J.Req.Sample;
  const uint64_t Trace = J.Req.Trace;
  Recorder &Rec = Recorder::global();
  uint64_t T0 = Recorder::nowNanos();
  Rec.count("serve/sample_requests");
  ScopedSpan ReqSpan(Rec, "serve/request", "serve");
  ReqSpan.arg("trace_id", double(Trace));

  if (J.HasDeadline && std::chrono::steady_clock::now() >= J.DeadlineAt) {
    sendError(*J.C, J.Req.Id, ErrorCode::Deadline,
              "deadline expired while queued", Trace);
    logAccess("sample", J.Req.Id, Trace, "deadline", 0.0, -1);
    return;
  }

  uint64_t Key = artifactKey(SR);
  bool CompiledHere = false;
  Result<std::shared_ptr<const Artifact>> ModelR =
      acquireArtifact(SR, Key, Trace, CompiledHere);
  if (!ModelR.ok()) {
    sendError(*J.C, J.Req.Id, ErrorCode::CompileError, ModelR.message(),
              Trace);
    logAccess("sample", J.Req.Id, Trace, "compile-error",
              double(Recorder::nowNanos() - T0) / 1e6, CompiledHere ? 0 : 1);
    return;
  }
  std::shared_ptr<const Artifact> A = ModelR.take();
  Rec.count(CompiledHere ? "serve/cache_miss" : "serve/cache_hit");

  if (sandboxEligible(SR)) {
    serveSampleIsolated(std::move(J), std::move(A), Key, CompiledHere, T0);
    return;
  }

  StreamCursor Cur(SR.Chains < 1 ? 1 : SR.Chains);
  serveInProcess(J, A, Cur, CompiledHere, T0);
}
