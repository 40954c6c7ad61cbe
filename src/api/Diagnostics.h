//===- api/Diagnostics.h - Chain diagnostics and multi-chain ---*- C++ -*-===//
///
/// \file
/// Convergence diagnostics for posterior samples (effective sample
/// size, split-R-hat) and a multi-chain runner. The paper notes (7.2)
/// that Jags and Stan parallelize MCMC by running multiple independent
/// chains while AugurV2 parallelizes within a chain; the two are
/// complementary, and this module provides the independent-chains side
/// at the library level: each chain is its own compiled program with a
/// split RNG stream.
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_API_DIAGNOSTICS_H
#define AUGUR_API_DIAGNOSTICS_H

#include <string>
#include <vector>

#include "api/Infer.h"

namespace augur {

/// Converts the in-flight exception into a structured error Status.
/// Call only from a catch block at the api sampling boundary; it
/// rethrows internally to dispatch on the exception type (ExecError,
/// std::bad_alloc, std::exception). Library callers therefore always
/// see a Status — no execution-layer exception escapes the api.
Status execFaultStatus(const char *Where);

/// Effective sample size of a scalar trace via the initial positive
/// sequence estimator (Geyer): N / (1 + 2 sum of autocorrelations).
double effectiveSampleSize(const std::vector<double> &Trace);

/// Split-R-hat (Gelman-Rubin) over one or more scalar traces. Values
/// near 1 indicate convergence; each trace is split in half so a single
/// chain still yields a meaningful statistic.
double splitRHat(const std::vector<std::vector<double>> &Traces);

/// Extracts the scalar trace of \p Var (flattened element \p Elem) from
/// a sample set.
std::vector<double> scalarTrace(const SampleSet &S, const std::string &Var,
                                int64_t Elem = 0);

/// Result of a multi-chain run.
struct MultiChainResult {
  std::vector<SampleSet> Chains;

  /// Split-R-hat across all chains for one scalar component.
  double rHat(const std::string &Var, int64_t Elem = 0) const;
  /// Total effective sample size across chains.
  double ess(const std::string &Var, int64_t Elem = 0) const;
  /// Pooled posterior mean across chains.
  double mean(const std::string &Var, int64_t Elem = 0) const;

  /// Per-chain acceptance rates, keyed by update display name (e.g.
  /// "HMC(mu)"). Complements ess()/rHat(): a chain that rejects every
  /// proposal shows up here before it shows up as a bad R-hat.
  const std::map<std::string, double> &acceptRates(int Chain) const;
  /// Acceptance rate of one update on one chain (1.0 for Gibbs).
  double acceptRate(int Chain, const std::string &UpdateName) const;
  /// Per-chain log-joint trace over retained samples (nonzero when the
  /// run used SampleOptions::TrackLogJoint).
  const std::vector<double> &logJoint(int Chain) const;
};

/// Runs \p NumChains independent chains of one compiled artifact, each
/// with a distinct seed derived from Opts.Seed.
Result<MultiChainResult>
runChains(const std::string &ModelSource, CompileOptions Opts,
          const std::vector<Value> &HyperArgs, const Env &Data,
          const SampleOptions &SO, int NumChains);

} // namespace augur

#endif // AUGUR_API_DIAGNOSTICS_H
