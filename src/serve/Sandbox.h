//===- serve/Sandbox.h - Crash-isolated sampling workers -------*- C++ -*-===//
///
/// \file
/// Process isolation for the serving daemon (DESIGN.md section 17). A
/// sampling request that executes dlopen'd generated C runs arbitrary
/// machine code in the daemon's address space; one SIGSEGV, abort, or
/// runaway allocation would kill every connected client. This layer
/// forks a supervised worker per sandboxed attempt instead:
///
///   - fork() from the serve worker thread: the child inherits the
///     compiled artifact copy-on-write, so a sandboxed attempt pays no
///     recompile and no artifact serialization — the parent's pristine
///     copy is untouchable by construction,
///   - the child samples every chain and streams each retained draw
///     frame back over a shared-memory SPSC byte ring (pipe fallback),
///     so serving stays incremental through the sandbox boundary,
///   - the parent relays frames to the client verbatim (bit-identity:
///     the child runs the exact encoder the in-process path runs),
///     reaps the child via waitpid, and classifies its end: a status
///     record means completed/failed, death without one means crashed
///     (SIGSEGV/SIGABRT/OOM-kill or a sanitizer's unclean exit),
///   - RLIMIT_AS / RLIMIT_CPU bound the worker, and the request
///     deadline propagates as SIGTERM-then-SIGKILL escalation so a
///     hung worker releases its pool slot at the deadline instead of
///     holding it until the daemon's write timeout.
///
/// Retry transparency: a StreamCursor tracks, per chain, the next draw
/// index the client has NOT yet seen. Because retried and hedged
/// attempts replay bit-identical streams, the relay simply drops the
/// already-forwarded prefix — the client observes one seamless stream
/// across any number of worker deaths.
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_SERVE_SANDBOX_H
#define AUGUR_SERVE_SANDBOX_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/Infer.h"
#include "serve/Protocol.h"
#include "serve/Server.h"

namespace augur {
namespace serve {

/// Per-attempt sandbox configuration (derived from ServerOptions and
/// the request's remaining deadline at fork time).
struct SandboxOptions {
  uint64_t RssLimitBytes = 0; ///< RLIMIT_AS in the worker; 0 = unlimited
  int64_t CpuLimitSecs = 0;   ///< RLIMIT_CPU in the worker; 0 = unlimited
  bool HasDeadline = false;
  std::chrono::steady_clock::time_point DeadlineAt;
  /// After a deadline SIGTERM, how long before SIGKILL. The worker also
  /// checks the deadline itself per draw, so a cooperative worker exits
  /// with a structured status; the escalation is for wedged ones.
  int64_t KillGraceMillis = 500;
  size_t RingBytes = 1u << 20; ///< shared-memory ring capacity
  bool ForcePipe = false;      ///< use the pipe transport unconditionally
};

/// How a sandboxed attempt ended, from the parent's point of view.
enum class WorkerEnd {
  Completed,      ///< status record: ok
  Failed,         ///< status record: structured failure (exec fault,
                  ///< in-worker deadline) — NOT a crash; never retried
  Crashed,        ///< died without a status record: signal (SIGSEGV,
                  ///< SIGABRT, OOM SIGKILL) or unclean exit
  DeadlineKilled, ///< parent killed it after deadline expiry
  ClientGone,     ///< parent killed it: client vanished / daemon stopping
};

/// Parent-side summary of one sandboxed attempt.
struct WorkerResult {
  WorkerEnd End = WorkerEnd::Crashed;
  int Signal = 0;    ///< terminating signal when died-by-signal, else 0
  int ExitCode = -1; ///< exit code when exited without a status record
  std::string Code;    ///< protocol error-code name from a Failed status
  std::string Message; ///< human-readable detail
  /// Per-chain convergence diagnostics from the status record
  /// ({"<chain>":{"rhat":{var:val},"ess":{...}}}); the parent
  /// republishes them as chain<k>/diag/* gauges since the worker's own
  /// recorder is disabled post-fork.
  Json Diag;
  uint64_t DrawsForwarded = 0; ///< draws newly forwarded this attempt
};

/// Per-chain forwarded high-water marks for retry/hedge transparency.
/// shouldForward() answers whether (chain, index) is new to the client;
/// advance() moves the mark after a successful client write.
class StreamCursor {
public:
  explicit StreamCursor(int Chains)
      : Next(size_t(Chains < 1 ? 1 : Chains), 0) {}

  bool shouldForward(int64_t Chain, int64_t Index) const {
    return Chain >= 0 && size_t(Chain) < Next.size() &&
           Index == Next[size_t(Chain)];
  }
  void advance(int64_t Chain) {
    if (Chain >= 0 && size_t(Chain) < Next.size())
      ++Next[size_t(Chain)];
  }
  int64_t next(int64_t Chain) const {
    return (Chain >= 0 && size_t(Chain) < Next.size()) ? Next[size_t(Chain)]
                                                       : 0;
  }
  uint64_t totalForwarded() const {
    uint64_t N = 0;
    for (int64_t V : Next)
      N += uint64_t(V);
    return N;
  }

private:
  std::vector<int64_t> Next; ///< next unseen draw index, per chain
};

/// Draw sink of the shared chain loop: OnDraw plus the chain index.
using ChainDrawSink = std::function<Status(
    int Chain, uint64_t Index, const std::vector<std::string> &Names,
    const std::vector<const Value *> &Row, double LogJoint)>;

/// Called after each chain completes, with its diagnostics-bearing
/// (drawless) SampleSet.
using ChainDoneFn = std::function<void(int Chain, const SampleSet &Set)>;

/// The chain loop both execution paths share — the in-process fast path
/// in Server::serveInProcess and the sandbox child — so a hedged or
/// retried attempt builds the exact chains (seed philoxMix(Seed, c),
/// chain index c) and draw schedule the first attempt ran: the streams
/// are bit-identical by construction, which is what makes retry/hedge
/// substitution sound.
Status runRequestChains(const std::shared_ptr<const Artifact> &A,
                        const SampleRequest &SR,
                        const ChainDrawSink &OnDraw,
                        const ChainDoneFn &OnChainDone = nullptr);

/// Runs one sandboxed attempt of \p SR against the (CoW-inherited)
/// artifact \p A: forks a worker, relays its draw frames through
/// \p Forward (raw frame JSON, written to the client verbatim; a failed
/// write means the client is gone), filters the already-forwarded
/// prefix via \p Cursor, and reaps the worker. \p KeepGoing is polled
/// between frames; returning false kills the worker (client abort /
/// daemon shutdown). The returned WorkerResult classifies the attempt;
/// the Result error is reserved for parent-side setup failures (pipe /
/// mmap / fork exhaustion).
Result<WorkerResult>
runSandboxed(const std::shared_ptr<const Artifact> &A,
             const SampleRequest &SR, uint64_t ReqId,
             const SandboxOptions &SO, StreamCursor &Cursor,
             const std::function<Status(const std::string &FrameJson)> &Forward,
             const std::function<bool()> &KeepGoing);

} // namespace serve
} // namespace augur

#endif // AUGUR_SERVE_SANDBOX_H
