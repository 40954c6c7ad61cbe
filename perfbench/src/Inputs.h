//===- perfbench/src/Inputs.h - Seeded synthetic inputs --------*- C++ -*-===//
///
/// \file
/// The benchmark generates every input itself from its --seed. The two
/// generators follow bench/BenchCommon.h (ldaCorpus, logisticData) so the
/// shapes match the repository's other benches and the sizing probes;
/// they live here so the benchmark's inputs change only with the
/// benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_PERFBENCH_INPUTS_H
#define AUGUR_PERFBENCH_INPUTS_H

#include <cmath>
#include <vector>

#include "runtime/Value.h"
#include "support/RNG.h"

namespace perfbench {

/// A bag-of-words corpus whose K generating topics are disjoint bands
/// of V/K words (each band word weight 1, every other word 0.01).
struct Corpus {
  int64_t V = 0, D = 0, Tokens = 0;
  augur::BlockedInt Words;   ///< ragged documents
  augur::BlockedInt Lengths; ///< per-document length
};

inline Corpus ldaCorpus(int64_t V, int64_t D, int64_t MeanLen, int64_t K,
                        uint64_t Seed) {
  augur::RNG Rng(Seed);
  Corpus C;
  C.V = V;
  C.D = D;
  std::vector<std::vector<double>> Topics(size_t(K),
                                          std::vector<double>(size_t(V), 0.01));
  for (int64_t T = 0; T < K; ++T) {
    int64_t Band = V / K;
    for (int64_t W = T * Band; W < (T + 1) * Band && W < V; ++W)
      Topics[size_t(T)][size_t(W)] = 1.0;
    double Sum = 0.0;
    for (double P : Topics[size_t(T)])
      Sum += P;
    for (double &P : Topics[size_t(T)])
      P /= Sum;
  }
  std::vector<std::vector<int64_t>> Docs;
  std::vector<int64_t> Lens;
  for (int64_t Doc = 0; Doc < D; ++Doc) {
    int64_t Len = MeanLen / 2 + Rng.uniformInt(MeanLen);
    std::vector<int64_t> Words;
    int64_t T = Rng.uniformInt(K);
    for (int64_t I = 0; I < Len; ++I) {
      if (Rng.uniform() < 0.2)
        T = Rng.uniformInt(K);
      const auto &Dist = Topics[size_t(T)];
      double U = Rng.uniform(), Acc = 0.0;
      int64_t W = V - 1;
      for (int64_t J = 0; J < V; ++J) {
        Acc += Dist[size_t(J)];
        if (U < Acc) {
          W = J;
          break;
        }
      }
      Words.push_back(W);
    }
    C.Tokens += Len;
    Lens.push_back(Len);
    Docs.push_back(std::move(Words));
  }
  C.Words = augur::BlockedInt::ragged(Docs);
  C.Lengths = augur::BlockedInt::flat(Lens);
  return C;
}

/// Logistic-regression data: N standard-normal rows of Kf features,
/// coefficients of alternating sign with magnitude in [0.5, 2], bias 0.5.
struct LogisticData {
  augur::BlockedReal X;
  augur::BlockedInt Y;
  std::vector<double> TrueTheta;
};

inline LogisticData logisticData(int64_t N, int64_t Kf, uint64_t Seed) {
  augur::RNG Rng(Seed);
  LogisticData L;
  L.TrueTheta.assign(size_t(Kf), 0.0);
  for (int64_t K = 0; K < Kf; ++K)
    L.TrueTheta[size_t(K)] = (K % 2 ? -1.0 : 1.0) * (0.5 + 1.5 * Rng.uniform());
  L.X = augur::BlockedReal::rect(N, Kf, 0.0);
  L.Y = augur::BlockedInt::flat(N, 0);
  for (int64_t I = 0; I < N; ++I) {
    double Dot = 0.5;
    for (int64_t K = 0; K < Kf; ++K) {
      L.X.at(I, K) = Rng.gauss();
      Dot += L.X.at(I, K) * L.TrueTheta[size_t(K)];
    }
    L.Y.at(I) = Rng.uniform() < 1.0 / (1.0 + std::exp(-Dot)) ? 1 : 0;
  }
  return L;
}

} // namespace perfbench

#endif // AUGUR_PERFBENCH_INPUTS_H
