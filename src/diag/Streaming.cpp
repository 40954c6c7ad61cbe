//===- diag/Streaming.cpp - Streaming convergence diagnostics ------------===//

#include "diag/Streaming.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace augur {
namespace diag {

namespace {

constexpr double NaN = std::numeric_limits<double>::quiet_NaN();
constexpr double Inf = std::numeric_limits<double>::infinity();

/// Split-R̂ from the moments of the two halves: pooled within-half
/// variance W, between-half term B (m = 2 halves), and the var⁺
/// overestimate of the marginal variance (Gelman et al., BDA3 11.4).
double rhatFromHalves(const Welford &A, const Welford &B) {
  if (A.N < 2 || B.N < 2)
    return NaN;
  double W = (A.M2 + B.M2) / double((A.N - 1) + (B.N - 1));
  double Grand =
      (A.Mean * double(A.N) + B.Mean * double(B.N)) / double(A.N + B.N);
  double DA = A.Mean - Grand, DB = B.Mean - Grand;
  // Between-half variance with m - 1 = 1 denominator, weighted by the
  // (possibly unequal) half sizes.
  double Btwn = double(A.N) * DA * DA + double(B.N) * DB * DB;
  double NBar = double(A.N + B.N) / 2.0;
  if (W <= 0.0)
    return Btwn > 0.0 ? Inf : NaN; // constant halves: agree -> undefined
  double VarPlus = (NBar - 1.0) / NBar * W + Btwn / NBar;
  return std::sqrt(VarPlus / W);
}

/// ESS = N / τ with τ from Geyer's initial positive sequence over the
/// autocorrelations Rho (Rho[0] == 1), clamped to [1, N].
double essFromRho(const std::vector<double> &Rho, uint64_t N) {
  double Tau = -1.0;
  for (size_t J = 0; 2 * J + 1 < Rho.size(); ++J) {
    double G = Rho[2 * J] + Rho[2 * J + 1];
    if (!(G > 0.0))
      break;
    Tau += 2.0 * G;
  }
  if (Tau < 1.0)
    Tau = 1.0;
  double E = double(N) / Tau;
  return std::min(std::max(E, 1.0), double(N));
}

} // namespace

StreamingDiag::StreamingDiag(int MaxSegments, int MaxLag)
    : MaxSegs(std::max(4, MaxSegments & ~1)), MaxLag(std::max(2, MaxLag)) {
  Head.reserve(size_t(this->MaxLag));
  Ring.assign(size_t(this->MaxLag), 0.0);
  LagProd.assign(size_t(this->MaxLag), 0.0);
  Segs.reserve(size_t(MaxSegs));
}

void StreamingDiag::push(double X) {
  uint64_t N = Total.N; // index of X in the stream
  uint64_t L = uint64_t(MaxLag);

  // Lag products against the most recent window.
  uint64_t K = std::min(L, N);
  for (uint64_t Lag = 1; Lag <= K; ++Lag)
    LagProd[size_t(Lag - 1)] += X * Ring[size_t((N - Lag) % L)];
  Ring[size_t(N % L)] = X;
  if (Head.size() < size_t(MaxLag))
    Head.push_back(X);

  Total.add(X);
  Sum += X;

  // Segment ring for split-R̂: grow a fresh segment when the last one
  // fills; when all MaxSegs are full, merge adjacent pairs and double
  // the per-segment capacity.
  if (Segs.empty() || Segs.back().N == SegCap) {
    if (Segs.size() == size_t(MaxSegs)) {
      for (size_t I = 0; I * 2 < Segs.size(); ++I) {
        Welford W = Segs[I * 2];
        W.merge(Segs[I * 2 + 1]);
        Segs[I] = W;
      }
      Segs.resize(size_t(MaxSegs) / 2);
      SegCap *= 2;
    }
    Segs.emplace_back();
  }
  Segs.back().add(X);
}

uint64_t StreamingDiag::splitPoint() const {
  uint64_t Half = (Total.N + 1) / 2;
  uint64_t C = 0;
  for (const Welford &S : Segs) {
    if (C >= Half)
      break;
    C += S.N;
  }
  return C;
}

double StreamingDiag::rhat() const {
  if (Total.N < 4)
    return NaN;
  uint64_t Split = splitPoint();
  Welford A, B;
  uint64_t C = 0;
  for (const Welford &S : Segs) {
    (C < Split ? A : B).merge(S);
    C += S.N;
  }
  return rhatFromHalves(A, B);
}

double StreamingDiag::ess() const {
  uint64_t N = Total.N;
  if (N < 4)
    return double(N);
  double Gamma0 = Total.M2 / double(N);
  if (!(Gamma0 > 0.0))
    return double(N); // constant chain: every draw equally informative
  double Mean = Sum / double(N);

  uint64_t MaxK = std::min<uint64_t>(uint64_t(MaxLag), N - 1);
  std::vector<double> Rho(size_t(MaxK) + 1);
  Rho[0] = 1.0;
  // head_k / tail_k: sums of the first / last k values, so the raw lag
  // products can be centered exactly:
  //   γ̂_k = (1/N)·Σ_{t=k}^{N-1}(x_t − m)(x_{t−k} − m)
  //       = (1/N)·[LagProd_k − m·((S − head_k) + (S − tail_k))
  //                + (N − k)·m²]
  double HeadSum = 0.0, TailSum = 0.0;
  for (uint64_t Lag = 1; Lag <= MaxK; ++Lag) {
    HeadSum += Head[size_t(Lag - 1)];
    TailSum += Ring[size_t((N - Lag) % uint64_t(MaxLag))];
    double G = (LagProd[size_t(Lag - 1)] -
                Mean * ((Sum - HeadSum) + (Sum - TailSum)) +
                double(N - Lag) * Mean * Mean) /
               double(N);
    Rho[size_t(Lag)] = G / Gamma0;
  }
  return essFromRho(Rho, N);
}

double batchRhat(const std::vector<double> &Chain, uint64_t SplitAt) {
  if (Chain.size() < 4 || SplitAt == 0 || SplitAt >= Chain.size())
    return NaN;
  Welford A, B;
  for (uint64_t I = 0; I < Chain.size(); ++I)
    (I < SplitAt ? A : B).add(Chain[size_t(I)]);
  return rhatFromHalves(A, B);
}

double batchEss(const std::vector<double> &Chain, int MaxLag) {
  uint64_t N = Chain.size();
  if (N < 4)
    return double(N);
  double Sum = 0.0;
  for (double X : Chain)
    Sum += X;
  double Mean = Sum / double(N);
  double Gamma0 = 0.0;
  for (double X : Chain)
    Gamma0 += (X - Mean) * (X - Mean);
  Gamma0 /= double(N);
  if (!(Gamma0 > 0.0))
    return double(N);

  uint64_t MaxK = std::min<uint64_t>(uint64_t(std::max(2, MaxLag)), N - 1);
  std::vector<double> Rho(size_t(MaxK) + 1);
  Rho[0] = 1.0;
  for (uint64_t Lag = 1; Lag <= MaxK; ++Lag) {
    double G = 0.0;
    for (uint64_t T = Lag; T < N; ++T)
      G += (Chain[size_t(T)] - Mean) * (Chain[size_t(T - Lag)] - Mean);
    Rho[size_t(Lag)] = (G / double(N)) / Gamma0;
  }
  return essFromRho(Rho, N);
}

} // namespace diag
} // namespace augur
