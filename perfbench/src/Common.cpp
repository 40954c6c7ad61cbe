//===- perfbench/src/Common.cpp -------------------------------*- C++ -*-===//

#include "Common.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sys/resource.h>

namespace perfbench {

double Dist::median() const {
  if (Vals.empty())
    return 0.0;
  std::vector<double> S = Vals;
  std::sort(S.begin(), S.end());
  size_t N = S.size();
  return N % 2 ? S[N / 2] : 0.5 * (S[N / 2 - 1] + S[N / 2]);
}

Dist::Tail Dist::tail() const {
  Tail T;
  T.N = Vals.size();
  if (Vals.empty())
    return T;
  std::vector<double> S = Vals;
  std::sort(S.begin(), S.end());
  size_t N = S.size();
  if (N >= 100) {
    T.Value = S[N - 11];
    T.Pct = 100.0 * double(N - 10) / double(N);
  } else {
    T.Value = S[(9 * N + 9) / 10 - 1]; // nearest-rank p90
    T.Pct = 90.0;
  }
  return T;
}

std::string tailNote(const Dist::Tail &T) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "p%.1f of %zu", T.Pct, T.N);
  return Buf;
}

void Report::tail(const std::string &Name, const Dist &D) {
  Dist::Tail T = D.tail();
  endToEnd(Name, "ms", T.Value, tailNote(T));
}

void Report::check(bool Ok, const std::string &What) {
  std::printf("check %-4s %s\n", Ok ? "ok" : "FAIL", What.c_str());
  if (!Ok)
    Failures.push_back(What);
}

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_maxrss) / 1024.0;
}

void setTracing(bool On) {
  augur::TelemetryConfig C;
  C.Enabled = On;
  C.SweepLogJoint = false;
  augur::Recorder::global().configure(C);
  augur::Recorder::global().reset();
}

SpanTotals spanTotals(const std::vector<augur::TraceEvent> &Events,
                      const std::string &Name) {
  SpanTotals T;
  for (const auto &E : Events)
    if (E.Ph == 'X' && E.Name == Name) {
      ++T.Count;
      T.Ms += double(E.DurNanos) / 1e6;
    }
  return T;
}

SpanTotals spanTotalsPrefix(const std::vector<augur::TraceEvent> &Events,
                            const std::string &Prefix) {
  SpanTotals T;
  for (const auto &E : Events)
    if (E.Ph == 'X' && E.Name.compare(0, Prefix.size(), Prefix) == 0) {
      ++T.Count;
      T.Ms += double(E.DurNanos) / 1e6;
    }
  return T;
}

uint64_t counterSum(const std::map<std::string, uint64_t> &Counters,
                    const std::string &Suffix) {
  uint64_t S = 0;
  for (const auto &[K, V] : Counters)
    if (K.size() >= Suffix.size() &&
        K.compare(K.size() - Suffix.size(), Suffix.size(), Suffix) == 0)
      S += V;
  return S;
}

std::map<std::string, double>
executorSplit(const std::vector<augur::TraceEvent> &Events,
              const std::map<std::string, std::string> &Exec) {
  std::vector<const augur::TraceEvent *> Cgen;
  for (const auto &E : Events)
    if (E.Ph == 'X' && E.Name.compare(0, 13, "compile/cgen/") == 0)
      Cgen.push_back(&E);
  std::map<std::string, double> Split;
  for (const auto &E : Events) {
    size_t At = E.Name.find("/update/");
    if (E.Ph != 'X' || E.Name.compare(0, 5, "chain") != 0 ||
        At == std::string::npos)
      continue;
    auto It = Exec.find(E.Name.substr(At + 8));
    std::string Ex = It == Exec.end() ? "tree" : It->second;
    double Ms = double(E.DurNanos) / 1e6;
    for (const augur::TraceEvent *C : Cgen)
      if (C->Tid == E.Tid && C->StartNanos >= E.StartNanos &&
          C->StartNanos + C->DurNanos <= E.StartNanos + E.DurNanos)
        Ms -= double(C->DurNanos) / 1e6;
    Split[Ex + "_ms"] += Ms;
    Split["runs"] += 1;
    Split["plan_runs"] += Ex == "plan" ? 1 : 0;
  }
  return Split;
}

size_t countEntries(const std::string &Dir) {
  std::error_code EC;
  size_t N = 0;
  for (auto It = std::filesystem::directory_iterator(Dir, EC);
       !EC && It != std::filesystem::directory_iterator(); It.increment(EC))
    ++N;
  return N;
}

void clearDir(const std::string &Dir) {
  std::error_code EC;
  for (auto It = std::filesystem::directory_iterator(Dir, EC);
       !EC && It != std::filesystem::directory_iterator(); It.increment(EC))
    std::filesystem::remove_all(It->path(), EC);
}

} // namespace perfbench
