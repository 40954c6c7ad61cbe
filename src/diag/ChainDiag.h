//===- diag/ChainDiag.h - Per-chain diagnostic registry --------*- C++ -*-===//
///
/// \file
/// The per-chain face of the observability plane: one StreamingDiag per
/// monitored latent variable, fed from MCMCProgram::step() after every
/// sweep and published as telemetry gauges under the chain's key
/// prefix:
///
///   chain<k>/diag/rhat/<var>    streaming split-R̂
///   chain<k>/diag/ess/<var>     streaming effective sample size
///
/// Because the hook lives in MCMCProgram::step() — which both the
/// interpreter and the emitted-C backend run — the key schema is
/// identical interp-vs-native by construction. Non-scalar latents are
/// reduced to one scalar summary per sweep (diagScalar: the mean of the
/// value's real components), documented here so dashboards know what
/// the gauge tracks.
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_DIAG_CHAINDIAG_H
#define AUGUR_DIAG_CHAINDIAG_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "density/Eval.h"
#include "diag/Streaming.h"
#include "telemetry/Telemetry.h"

namespace augur {
namespace diag {

/// Knobs for the convergence-diagnostics plane. Disabled by default —
/// when off, no ChainDiag is allocated and step() pays nothing.
struct DiagOptions {
  bool Enabled = false;
  /// Cap on monitored variables (model parameter order decides who is
  /// in; the cap keeps wide models from minting unbounded gauges).
  int MaxVars = 64;
  int MaxSegments = 32; ///< split-R̂ segment ring size
  int MaxLag = 64;      ///< ESS autocovariance window

  /// Folds the AUGUR_DIAG env override into \p O: "0" disables, any
  /// other non-empty value enables. Mirrors AUGUR_TELEMETRY.
  static void applyEnv(DiagOptions &O);
};

/// Streaming diagnostics for every monitored variable of one chain.
/// Never consumes RNG and never writes the Env — the sample stream is
/// bit-identical with diagnostics on or off.
class ChainDiag {
public:
  ChainDiag(const DiagOptions &O, std::vector<std::string> Vars,
            int ChainIndex);

  /// Ingests the post-sweep state: one diagScalar per monitored
  /// variable (variables absent from \p E are skipped).
  void observeSweep(const Env &E);

  /// Publishes the current R̂/ESS of every monitored variable as
  /// gauges on \p R (undefined R̂ publishes as NaN so the key set
  /// does not depend on the values sampled).
  void publish(Recorder &R) const;

  uint64_t sweeps() const { return NumSweeps; }
  const std::vector<std::string> &vars() const { return Vars; }

  /// The accumulator for \p Var, or nullptr if unmonitored.
  const StreamingDiag *stat(const std::string &Var) const;

  /// Current per-variable snapshots (NaN where undefined).
  std::map<std::string, double> rhats() const;
  std::map<std::string, double> esses() const;

private:
  DiagOptions Opts;
  std::vector<std::string> Vars;
  std::vector<StreamingDiag> Stats; ///< parallel to Vars
  std::vector<std::string> RhatKeys, EssKeys;
  uint64_t NumSweeps = 0;
};

/// Reduces a runtime value to the scalar the diagnostics track: the
/// value itself for scalars, the mean over all (flat) components for
/// vectors, matrices, and matrix vectors. Empty aggregates reduce to 0.
double diagScalar(const Value &V);

} // namespace diag
} // namespace augur

#endif // AUGUR_DIAG_CHAINDIAG_H
