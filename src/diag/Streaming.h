//===- diag/Streaming.h - Streaming convergence diagnostics ----*- C++ -*-===//
///
/// \file
/// Online MCMC convergence diagnostics with O(1) memory per monitored
/// variable (DESIGN.md "Observability plane"). A StreamingDiag ingests
/// one scalar per sweep and can answer, at any point in the run:
///
///   * split-R̂ — the potential scale reduction factor between the
///     first and second half of the chain so far, maintained via a
///     doubling ring of Welford segment accumulators (the halves are
///     split at a segment boundary; splitPoint() reports exactly
///     where, so batch references can reproduce the number).
///   * ESS — effective sample size from the empirical autocovariance
///     over a fixed lag window (sum-of-products accumulators plus the
///     head/tail value windows needed to center them exactly), with
///     Geyer's initial-positive-sequence truncation.
///
/// Both statistics are pure functions of the pushed values: pushing
/// never consumes RNG and never touches the chain, which is what makes
/// the observability plane bit-transparent (sampled streams are
/// identical with diagnostics on or off).
///
/// batchRhat / batchEss are the straightforward two-pass reference
/// implementations of the SAME estimators; the unit tests hold the
/// streaming results to them within 1e-6.
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_DIAG_STREAMING_H
#define AUGUR_DIAG_STREAMING_H

#include <cstdint>
#include <vector>

namespace augur {
namespace diag {

/// Numerically stable streaming mean/variance (Welford), with exact
/// pairwise merge — the building block for both the whole-chain moments
/// and the split-R̂ segment ring.
struct Welford {
  uint64_t N = 0;
  double Mean = 0.0;
  double M2 = 0.0; ///< sum of squared deviations from the running mean

  void add(double X) {
    ++N;
    double D = X - Mean;
    Mean += D / double(N);
    M2 += D * (X - Mean);
  }

  /// Chan et al. parallel combine; exact in the sense that the merged
  /// moments equal the moments of the concatenated streams.
  void merge(const Welford &O) {
    if (O.N == 0)
      return;
    if (N == 0) {
      *this = O;
      return;
    }
    double D = O.Mean - Mean;
    uint64_t T = N + O.N;
    Mean += D * double(O.N) / double(T);
    M2 += O.M2 + D * D * double(N) * double(O.N) / double(T);
    N = T;
  }

  /// Unbiased sample variance (0 below two observations).
  double variance() const { return N > 1 ? M2 / double(N - 1) : 0.0; }
};

/// Streaming split-R̂ and autocovariance ESS for one scalar series.
/// Memory: MaxSegments Welford accumulators + 2*MaxLag doubles +
/// MaxLag lag-product accumulators — constant in the chain length.
class StreamingDiag {
public:
  explicit StreamingDiag(int MaxSegments = 32, int MaxLag = 64);

  /// Ingests the value of sweep count() (0-based).
  void push(double X);

  uint64_t count() const { return Total.N; }
  double mean() const { return Total.Mean; }
  double variance() const { return Total.variance(); }

  /// Split-R̂ over the two halves of the stream so far. NaN until at
  /// least 4 observations or while the within-half variance is zero
  /// with agreeing halves; a genuinely split chain (zero within, moved
  /// between) reports +inf.
  double rhat() const;

  /// Effective sample size from the lag-window autocovariance with
  /// Geyer initial-positive-sequence truncation, clamped to [1, N].
  double ess() const;

  /// Index of the first observation of the "second half" used by
  /// rhat() — always a segment boundary, within one segment of N/2.
  uint64_t splitPoint() const;

private:
  int MaxSegs;
  int MaxLag;

  Welford Total;
  double Sum = 0.0; ///< plain running sum (centers the lag products)

  // Split-R̂ segment ring: contiguous segments of SegCap observations;
  // when MaxSegs fill up, adjacent pairs merge and SegCap doubles.
  uint64_t SegCap = 1;
  std::vector<Welford> Segs;

  // ESS lag window: LagProd[k-1] = sum over t >= k of x_t * x_{t-k};
  // Head holds the first MaxLag values, Ring the most recent MaxLag.
  std::vector<double> Head;
  std::vector<double> Ring;
  std::vector<double> LagProd;
};

/// Two-pass reference split-R̂ of \p Chain split before index
/// \p SplitAt (first half = [0, SplitAt), second = [SplitAt, N)).
/// Same estimator StreamingDiag::rhat uses; the tests compare the two.
double batchRhat(const std::vector<double> &Chain, uint64_t SplitAt);

/// Two-pass reference ESS of \p Chain with autocovariances up to
/// \p MaxLag and Geyer initial-positive-sequence truncation.
double batchEss(const std::vector<double> &Chain, int MaxLag = 64);

} // namespace diag
} // namespace augur

#endif // AUGUR_DIAG_STREAMING_H
