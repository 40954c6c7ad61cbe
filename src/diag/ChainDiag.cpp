//===- diag/ChainDiag.cpp - Per-chain diagnostic registry -----------------===//

#include "diag/ChainDiag.h"

#include <cstdlib>

namespace augur {
namespace diag {

void DiagOptions::applyEnv(DiagOptions &O) {
  if (const char *E = std::getenv("AUGUR_DIAG")) {
    if (E[0] != '\0')
      O.Enabled = !(E[0] == '0' && E[1] == '\0');
  }
}

double diagScalar(const Value &V) {
  if (V.isIntScalar())
    return double(V.asInt());
  if (V.isRealScalar())
    return V.asReal();
  double Sum = 0.0;
  int64_t N = 0;
  if (V.isIntVec()) {
    for (int64_t X : V.intVec().flat())
      Sum += double(X);
    N = V.intVec().flatSize();
  } else if (V.isRealVec()) {
    for (double X : V.realVec().flat())
      Sum += X;
    N = V.realVec().flatSize();
  } else if (V.isMatrix()) {
    const Matrix &M = V.mat();
    N = M.rows() * M.cols();
    const double *D = M.data();
    for (int64_t I = 0; I < N; ++I)
      Sum += D[I];
  } else if (V.isMatVec()) {
    const MatVec &MV = V.matVec();
    int64_t Per = MV.rows() * MV.cols();
    for (int64_t I = 0; I < MV.size(); ++I) {
      const double *D = MV.at(I);
      for (int64_t J = 0; J < Per; ++J)
        Sum += D[J];
    }
    N = MV.size() * Per;
  }
  return N > 0 ? Sum / double(N) : 0.0;
}

ChainDiag::ChainDiag(const DiagOptions &O, std::vector<std::string> Vars,
                     int ChainIndex)
    : Opts(O), Vars(std::move(Vars)) {
  if (Opts.MaxVars > 0 && this->Vars.size() > size_t(Opts.MaxVars))
    this->Vars.resize(size_t(Opts.MaxVars));
  Stats.assign(this->Vars.size(),
               StreamingDiag(Opts.MaxSegments, Opts.MaxLag));
  std::string Prefix = "chain" + std::to_string(ChainIndex) + "/diag/";
  RhatKeys.reserve(this->Vars.size());
  EssKeys.reserve(this->Vars.size());
  for (const std::string &V : this->Vars) {
    RhatKeys.push_back(Prefix + "rhat/" + V);
    EssKeys.push_back(Prefix + "ess/" + V);
  }
}

void ChainDiag::observeSweep(const Env &E) {
  ++NumSweeps;
  for (size_t I = 0; I < Vars.size(); ++I) {
    auto It = E.find(Vars[I]);
    if (It != E.end())
      Stats[I].push(diagScalar(It->second));
  }
}

void ChainDiag::publish(Recorder &R) const {
  for (size_t I = 0; I < Vars.size(); ++I) {
    R.gauge(RhatKeys[I], Stats[I].rhat());
    R.gauge(EssKeys[I], Stats[I].ess());
  }
}

const StreamingDiag *ChainDiag::stat(const std::string &Var) const {
  for (size_t I = 0; I < Vars.size(); ++I)
    if (Vars[I] == Var)
      return &Stats[I];
  return nullptr;
}

std::map<std::string, double> ChainDiag::rhats() const {
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Vars.size(); ++I)
    Out[Vars[I]] = Stats[I].rhat();
  return Out;
}

std::map<std::string, double> ChainDiag::esses() const {
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Vars.size(); ++I)
    Out[Vars[I]] = Stats[I].ess();
  return Out;
}

} // namespace diag
} // namespace augur
