//===- serve/Protocol.h - Serving wire protocol ----------------*- C++ -*-===//
///
/// \file
/// The request/response protocol of the always-on inference service
/// (DESIGN.md section 13). Frames are length-prefixed JSON: a 4-byte
/// little-endian payload length followed by one compact JSON document.
/// Every document carries the schema version ("v") so an old client
/// talking to a new daemon gets a structured error instead of garbage.
///
/// Requests (client -> server):
///
///   {"v":1,"id":N,"op":"sample", "model":SRC, "schedule":S,
///    "native":B, "threads":T, "args":[VALUE...], "data":{NAME:VALUE},
///    "seed":U64, "chains":C, "samples":M, "burnin":B, "thin":K,
///    "record":[NAME...], "track_log_joint":B, "deadline_ms":MS}
///   {"v":1,"id":N,"op":"metrics"}
///   {"v":1,"id":N,"op":"ping"}
///   {"v":1,"id":N,"op":"shutdown"}
///
/// Responses (server -> client), all echoing the request id:
///
///   {"v":1,"id":N,"type":"draw","chain":C,"index":I,
///    "values":{NAME:VALUE},"log_joint":R}      one per retained draw
///   {"v":1,"id":N,"type":"done","chains":C,"samples":M,
///    "cache_hit":B,"elapsed_ms":R}             terminates a sample op
///   {"v":1,"id":N,"type":"error","code":CODE,"message":MSG}
///     + optional "detail":{...} (structured context, e.g. for
///       "worker-crashed": {"signal":S,"attempts":A,"draws":D})
///   {"v":1,"id":N,"type":"pong"}
///   {"v":1,"id":N,"type":"metrics","counters":{...},"histograms":{...}}
///   {"v":1,"id":N,"type":"bye"}                acknowledges shutdown
///
/// Values use a tagged encoding that round-trips every runtime Value
/// shape exactly (doubles via %.17g, int64 verbatim):
///
///   {"t":"i","v":I}                              Int scalar
///   {"t":"r","v":R}                              Real scalar
///   {"t":"iv","d":[I...]}                        flat Vec Int
///   {"t":"iv","d":[I...],"o":[O...]}             ragged Vec (Vec Int)
///   {"t":"rv","d":[R...]} / + "o"                Vec Real likewise
///   {"t":"m","r":R,"c":C,"d":[R...]}             Mat (row-major)
///   {"t":"mv","n":N,"r":R,"c":C,"d":[R...]}      Vec Mat
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_SERVE_PROTOCOL_H
#define AUGUR_SERVE_PROTOCOL_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "density/Eval.h"
#include "serve/Json.h"
#include "support/Result.h"

namespace augur {
namespace serve {

/// Wire schema version; bump on any incompatible frame change.
constexpr int64_t ProtocolVersion = 1;

/// Upper bound on a single frame's payload (a structural sanity check
/// against corrupt length prefixes, not a tuning knob).
constexpr uint32_t MaxFrameBytes = 256u << 20;

/// Structured error categories carried in error frames.
enum class ErrorCode {
  BadRequest,   ///< malformed frame / unknown op / bad value encoding
  CompileError, ///< model failed to compile
  ExecError,    ///< sampling fault (this request only; daemon survives)
  Deadline,     ///< per-request deadline expired
  Overloaded,   ///< admission control rejected (queue full)
  ShuttingDown, ///< daemon is stopping
  WorkerCrashed,///< sandbox worker died (signal/OOM) and retries/hedge
                ///< were exhausted; transient — safe to retry
  Internal,     ///< anything else
};

const char *errorCodeName(ErrorCode C);

/// Server-side ceiling on SampleRequest::Threads: max(8, 2x the host's
/// hardware concurrency). Generous enough for modest oversubscription
/// (small pooled widths on small hosts), bounded so a client cannot
/// mint unbounded permanent entries in the keyed ThreadPool registry.
int maxServedThreads();

/// A posterior-sampling request: everything needed to compile the model
/// (identity of the cached artifact) plus the query (per-request knobs
/// that deliberately do NOT enter the artifact key, so hot models skip
/// the compiler no matter the seed or sweep count).
struct SampleRequest {
  // Artifact identity.
  std::string Model;        ///< model surface source
  std::string Schedule;     ///< user schedule ("" = heuristic)
  bool NativeCpu = false;   ///< emit C + dlopen instead of interpreting
  int Threads = 1;          ///< pool width for Par/AtmPar loops; the
                            ///< decoder clamps client values to
                            ///< [1, maxServedThreads()]
  std::vector<Value> Args;  ///< hyper arguments, in formal order
  Env Data;                 ///< observed data by variable name

  // Query.
  uint64_t Seed = 0xA594;
  int Chains = 1;
  int NumSamples = 100;
  int BurnIn = 0;
  int Thin = 1;
  std::vector<std::string> Record; ///< empty = all model parameters
  bool TrackLogJoint = false;
  int64_t DeadlineMillis = 0; ///< 0 = no deadline
};

/// A decoded request frame.
struct Request {
  enum class Op { Sample, Metrics, Ping, Shutdown };
  Op Kind = Op::Ping;
  uint64_t Id = 0; ///< client-chosen id echoed in every response
  /// Server-minted trace id, assigned at decode (nextTraceId) and
  /// threaded through compile/sample spans, the access log, and the
  /// terminal done/error frame — the handle that lets a slow request
  /// be followed from wire to sweep (DESIGN.md "Observability plane").
  uint64_t Trace = 0;
  SampleRequest Sample; ///< valid when Kind == Op::Sample
};

/// Mints a process-unique request trace id (monotonic, never 0).
uint64_t nextTraceId();

//===----------------------------------------------------------------------===//
// Value codec
//===----------------------------------------------------------------------===//

Json encodeValue(const Value &V);
Result<Value> decodeValue(const Json &J);

//===----------------------------------------------------------------------===//
// Request codec
//===----------------------------------------------------------------------===//

Json encodeRequest(const Request &R);
Result<Request> decodeRequest(const Json &J);

//===----------------------------------------------------------------------===//
// Response builders
//===----------------------------------------------------------------------===//

Json drawFrame(uint64_t Id, int Chain, uint64_t Index,
               const std::vector<std::string> &Names,
               const std::vector<const Value *> &Values, double LogJoint);
Json doneFrame(uint64_t Id, int Chains, int Samples, bool CacheHit,
               double ElapsedMillis, uint64_t Trace = 0);
/// \p Detail, when non-null, is attached verbatim as the frame's
/// "detail" member (structured error context for clients).
Json errorFrame(uint64_t Id, ErrorCode Code, const std::string &Message,
                uint64_t Trace = 0, Json Detail = Json());
Json pongFrame(uint64_t Id);
Json byeFrame(uint64_t Id);

//===----------------------------------------------------------------------===//
// Artifact fingerprint
//===----------------------------------------------------------------------===//

/// Cache key of the compiled artifact a request needs: an FNV-1a hash
/// of the model source, schedule, backend choice, pool width, and the
/// canonical encoding of args + data. Seed and query fields are
/// excluded on purpose — every request builds its own seeded chains
/// of the cached artifact, so two requests for the same model with
/// different seeds share one artifact.
uint64_t artifactKey(const SampleRequest &R);

//===----------------------------------------------------------------------===//
// Frame transport
//===----------------------------------------------------------------------===//

/// Writes one length-prefixed frame to \p Fd (handles short writes;
/// EPIPE and friends surface as an error Status).
Status writeFrame(int Fd, const std::string &Payload);

/// Serializes \p J and writes it as one frame.
Status writeJsonFrame(int Fd, const Json &J);

/// Reads one frame from \p Fd. A clean EOF before the first length byte
/// sets \p Eof and returns an empty payload; EOF mid-frame is an error
/// (torn frame).
Result<std::string> readFrame(int Fd, bool &Eof);

/// Reads and parses one frame.
Result<Json> readJsonFrame(int Fd, bool &Eof);

} // namespace serve
} // namespace augur

#endif // AUGUR_SERVE_PROTOCOL_H
