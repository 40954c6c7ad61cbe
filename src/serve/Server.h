//===- serve/Server.h - Always-on inference daemon -------------*- C++ -*-===//
///
/// \file
/// The compile-once/serve-many inference service (DESIGN.md section
/// 13). A Server listens on a Unix or TCP socket, speaks the
/// length-prefixed JSON protocol of serve/Protocol.h, and executes
/// sampling requests against compiled artifacts held in an
/// ArtifactCache — the first request for a model pays the compiler, all
/// subsequent requests (any seed, any sweep count) run zero compiler
/// phases.
///
/// Threading model:
///   - one accept thread (unblocked on shutdown via a self-pipe),
///   - one reader thread per connection, which answers ping/metrics
///     inline and enqueues sample jobs; on disconnect the reader
///     removes its connection from the live set (closing the fd once
///     the last in-flight job drops its lease) and parks its thread
///     handle for the accept thread to join, so a long-lived daemon
///     never accumulates dead fds or threads,
///   - ServerOptions::Workers sampling worker threads draining a
///     bounded job queue (admission control: a full queue rejects with
///     a structured `overloaded` error instead of building unbounded
///     backlog).
///
/// A cached artifact is immutable: every request builds fresh chains of
/// it (the chain constructor Infer::sampleChains uses), so requests for
/// the same model sample concurrently, with no lock between them. Draws
/// stream back frame-by-frame as they are retained; the per-draw sink
/// also enforces the request deadline and client-disconnect abort.
///
/// Fault isolation: a sampling fault (including injected worker faults,
/// robust/FaultInject.h) is caught at the api boundary and surfaced as
/// an `exec-error` frame for that request only; the daemon and all
/// other in-flight requests are unaffected, and the artifact stays
/// reusable because no request writes to it.
///
/// Crash isolation (DESIGN.md section 17): requests selected by
/// ServerOptions::Isolation additionally run in forked sandbox workers
/// (serve/Sandbox.h), so even SIGSEGV/SIGABRT/OOM-kill in dlopen'd
/// generated code cannot take the daemon down. A supervised policy
/// layer (serve/Supervisor.h) retries crashed attempts with backoff,
/// optionally hedges onto the in-process interpreter (sound because
/// both backends stream bit-identical draws), and quarantines an
/// artifact behind a circuit breaker after repeated crashes.
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_SERVE_SERVER_H
#define AUGUR_SERVE_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "compile/Compiler.h"
#include "serve/ArtifactCache.h"
#include "serve/Protocol.h"
#include "serve/Supervisor.h"

namespace augur {
namespace serve {

class StreamCursor;

/// Daemon configuration.
struct ServerOptions {
  /// Unix-domain socket path; when non-empty it wins over TCP.
  std::string UnixPath;
  /// TCP endpoint (used when UnixPath is empty). Port 0 binds an
  /// ephemeral port, readable via Server::port() after start().
  std::string Host = "127.0.0.1";
  int Port = 0;
  /// Sampling worker threads (concurrent requests in execution).
  int Workers = 2;
  /// Admission control: maximum queued sample jobs; a request arriving
  /// with the queue full is rejected with an `overloaded` error.
  size_t QueueLimit = 16;
  /// Maximum resident compiled artifacts (LRU beyond this).
  size_t CacheCapacity = 8;
  /// SO_SNDTIMEO applied to every client socket: a client that stops
  /// reading its response stream (TCP backpressure) errors the worker's
  /// write after this long instead of wedging it forever. 0 disables.
  int64_t WriteTimeoutMillis = 10000;
  /// HTTP GET /metrics listener (Prometheus text exposition) on
  /// MetricsHost:MetricsPort. -1 disables; 0 binds an ephemeral port
  /// readable via Server::metricsPort() after start().
  int MetricsPort = -1;
  std::string MetricsHost = "127.0.0.1";
  /// JSON-lines access log: one line per completed request (trace id,
  /// op, status, latency). Empty disables. Lines are flushed as they
  /// are written (tail -f works); stop() fsyncs before closing.
  std::string AccessLogPath;
  /// Compile served models with streaming convergence diagnostics so
  /// /metrics carries per-variable R̂/ESS gauges. Costs <2% per sweep
  /// (BENCH_diag.json) and never perturbs the sampled streams.
  bool Diag = true;
  /// Directory the final metrics.json / trace.json flush writes into
  /// (the daemon's SIGTERM path; see tools/augur_serve).
  std::string TelemetryDir = ".";

  // Crash isolation (serve/Sandbox.h, serve/Supervisor.h; DESIGN.md
  // section 17).

  /// Which requests run in forked sandbox workers. Off is the trusted
  /// single-tenant fast path: everything executes in-process exactly as
  /// before. Native (the default) sandboxes requests that execute
  /// dlopen'd generated C — the only backend whose faults are
  /// uncatchable — while interpreter requests keep the in-process fast
  /// path. All sandboxes every sample request.
  enum class IsolationMode { Off, Native, All };
  IsolationMode Isolation = IsolationMode::Native;
  /// Retries after a worker crash (fresh fork, exponential backoff,
  /// bounded by the request deadline). The replayed stream's
  /// already-forwarded prefix is dropped, so a retry is invisible to
  /// the client. 0 disables.
  int RetryMax = 1;
  /// Base backoff before the first retry; doubles per retry.
  int64_t RetryBackoffMillis = 50;
  /// After the retry budget is spent (or for a failed breaker trial),
  /// re-execute the request on the in-process interpreter instead of
  /// failing it. Bit-identical streams make the hedge substitutable.
  bool HedgeInterp = true;
  /// Consecutive crashes before an artifact's circuit breaker opens
  /// (quarantining it to interpreter-only execution).
  int BreakerThreshold = 3;
  /// Open -> half-open cooldown; doubles per reopen (capped at 16x).
  int64_t BreakerCooldownMillis = 5000;
  /// RLIMIT_AS for each worker, in bytes (address space, the enforceable
  /// proxy for resident size). 0 = unlimited.
  uint64_t WorkerRssLimitBytes = 0;
  /// RLIMIT_CPU for each worker, in seconds. 0 = unlimited.
  int64_t WorkerCpuLimitSecs = 0;
  /// Maximum concurrently-live sandbox workers. 0 = Workers (one per
  /// serve thread, i.e. the herd never throttles below the thread pool).
  int MaxSandboxWorkers = 0;
  /// Deadline escalation: after the deadline SIGTERM, how long before
  /// SIGKILL finishes off a worker that ignores it.
  int64_t WorkerKillGraceMillis = 500;
  /// Crash-storm fork backoff: base delay after a crash, doubling per
  /// consecutive crash up to the max; any safe completion resets it.
  int64_t CrashBackoffMillis = 100;
  int64_t CrashBackoffMaxMillis = 5000;
  /// Shared-memory draw ring capacity per worker.
  size_t SandboxRingBytes = 1u << 20;
  /// Force the pipe transport (no shared-memory ring); primarily for
  /// exercising the fallback in tests.
  bool SandboxPipe = false;
};

/// The always-on inference daemon.
class Server {
public:
  explicit Server(ServerOptions O);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds, listens, and spawns the accept + worker threads. On
  /// success the server is reachable until stop().
  Status start();

  /// Blocks until a client issues the shutdown op (or requestStop is
  /// called from another thread).
  void wait();

  /// Flags shutdown: no new connections or jobs are admitted, queued
  /// jobs still complete. Non-blocking; pair with stop().
  void requestStop();

  /// Full teardown: requestStop(), drain workers, join every thread,
  /// close sockets. Idempotent.
  void stop();

  /// The bound TCP port (after start(); 0 for Unix sockets).
  int port() const { return ResolvedPort; }

  /// The bound /metrics port (after start(); 0 when disabled).
  int metricsPort() const { return ResolvedMetricsPort; }

  const ServerOptions &options() const { return Opts; }

  /// Artifact cache statistics (ops surface; also exposed remotely via
  /// the metrics op).
  ArtifactCacheStats cacheStats() const { return Cache.stats(); }

  /// Number of currently-live client connections (readers that have not
  /// seen EOF). Disconnected clients leave this count immediately even
  /// while a final in-flight job drains.
  size_t connectionCount();

private:
  /// One client connection. The reader thread and any number of worker
  /// jobs share it via shared_ptr; whoever drops the last reference
  /// closes the socket, so a response stream never writes to a
  /// recycled fd. The reader erases the Conn from `Conns` on exit, so a
  /// disconnected client's fd is reclaimed as soon as its last in-flight
  /// job finishes — an always-on daemon holds no per-dead-connection
  /// state.
  struct Conn {
    explicit Conn(int Fd) : Fd(Fd) {}
    ~Conn();
    int Fd;
    std::mutex WriteMu; ///< serializes frames from reader + workers
    std::atomic<bool> Alive{true};
    std::thread Reader; ///< assigned under ConnMu; reaped via DoneReaders
  };

  /// One queued sampling request.
  struct Job {
    Request Req;
    std::shared_ptr<Conn> C;
    bool HasDeadline = false;
    std::chrono::steady_clock::time_point DeadlineAt;
  };

  Status bindListen();
  Status bindMetrics();
  void acceptLoop();
  void connectionLoop(std::shared_ptr<Conn> C);
  void workerLoop();
  void serveSample(Job J);
  /// True when ServerOptions::Isolation routes this request through a
  /// forked sandbox worker.
  bool sandboxEligible(const SampleRequest &SR) const;
  /// The crash-isolated execution policy: supervised fork + relay,
  /// retry with backoff, interpreter hedge, circuit breaker. Sends the
  /// request's terminal frame and access-log line itself.
  void serveSampleIsolated(Job J, std::shared_ptr<const Artifact> Art,
                           uint64_t Key, bool CompiledHere, uint64_t T0);
  /// The cached artifact \p SR needs (cache key \p Key), compiled on a
  /// miss (sets \p CompiledHere when this call compiled it).
  Result<std::shared_ptr<const Artifact>>
  acquireArtifact(const SampleRequest &SR, uint64_t Key, uint64_t Trace,
                  bool &CompiledHere);
  /// In-process chain execution, forwarding draws past \p Cur (a fresh
  /// cursor forwards everything; a hedge resuming after a dead worker
  /// skips the already-forwarded prefix). Sends the terminal frame and
  /// access-log line itself.
  void serveInProcess(Job &J, const std::shared_ptr<const Artifact> &A,
                      StreamCursor &Cur, bool CompiledHere, uint64_t T0);
  /// Republishes a completed worker's R-hat/ESS payload as chain<k>
  /// diag gauges (the worker's own recorder is disabled post-fork).
  void publishWorkerDiag(const Json &Diag);
  Json metricsFrame(const Request &Req);
  void sendFrame(Conn &C, const Json &J);
  void sendError(Conn &C, uint64_t Id, ErrorCode Code,
                 const std::string &Message, uint64_t Trace = 0);
  size_t queueDepth();
  void reapReaders();

  // Observability plane (DESIGN.md section 14).
  void metricsLoop();
  void serveMetricsConn(int Fd);
  /// Renders the full Prometheus exposition document: the telemetry
  /// registry plus live service gauges (queue depth, connections,
  /// cache hit rate, resident artifacts).
  std::string buildPrometheusText();
  /// Appends one JSON line to the access log (no-op when disabled).
  void logAccess(const char *Op, uint64_t Id, uint64_t Trace,
                 const char *Code, double ElapsedMillis, int CacheHit);

  ServerOptions Opts;
  mutable ArtifactCache<const Artifact> Cache;
  std::unique_ptr<Supervisor> Super; ///< worker herd + circuit breakers

  int ListenFd = -1;
  int WakePipe[2] = {-1, -1}; ///< self-pipe unblocking acceptLoop and
                              ///< metricsLoop (neither drains it, so
                              ///< one shutdown byte wakes both)
  int ResolvedPort = 0;
  int MetricsFd = -1;
  int ResolvedMetricsPort = 0;
  bool Started = false;
  bool Stopped = false;

  std::FILE *AccessLog = nullptr;
  std::mutex AccessMu;

  std::thread AcceptThread;
  std::thread MetricsThread;
  std::vector<std::thread> WorkerThreads;
  std::mutex ConnMu;
  std::vector<std::shared_ptr<Conn>> Conns; ///< live connections only
  std::vector<std::thread> DoneReaders; ///< exited readers awaiting join
                                        ///< (reaped by acceptLoop/stop)

  std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<Job> Queue;
  bool Stopping = false;

  std::mutex StateMu;
  std::condition_variable StateCv;
  bool ShutdownRequested = false;
};

} // namespace serve
} // namespace augur

#endif // AUGUR_SERVE_SERVER_H
