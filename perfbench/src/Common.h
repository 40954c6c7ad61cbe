//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
///
/// \file
/// Options, the result record every workload fills, order statistics,
/// and the telemetry readers the traced runs use. The benchmark drives
/// the library only through its public entry points; everything here
/// measures from outside those calls.
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_PERFBENCH_COMMON_H
#define AUGUR_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/Telemetry.h"

namespace augur {
class MCMCProgram;
struct CompiledUpdate;
} // namespace augur

namespace perfbench {

/// Command-line options (see main.cpp for the flags).
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Tiny inputs and one short job: the self-test size.
  bool Tiny = false;
  /// Perturb the reference runs of the stream checks, so the
  /// correctness gate must fail (self-test of the gate).
  bool InjectMismatch = false;
  /// Per-run scratch directory (checkpoints), inside the checkout.
  std::string WorkDir;
  /// Directory, relative to the working directory, that receives the
  /// native backend's host-cc scratch directories (see main.cpp).
  std::string NativeDir;
};

/// Seconds on the steady clock since an arbitrary fixed origin.
inline double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A sample of one quantity; order statistics on demand.
class Dist {
public:
  void add(double V) { Vals.push_back(V); }
  void append(const Dist &O) {
    Vals.insert(Vals.end(), O.Vals.begin(), O.Vals.end());
  }
  size_t size() const { return Vals.size(); }
  bool empty() const { return Vals.empty(); }
  double median() const;
  /// The highest percentile with at least ten samples beyond it: the
  /// 11th largest value. Below 100 samples that percentile falls under
  /// p90 (under the median below 20), so the nearest-rank p90 stands in.
  struct Tail {
    double Value = 0.0;
    double Pct = 100.0;
    size_t N = 0;
  };
  Tail tail() const;

private:
  std::vector<double> Vals;
};

/// One printed metric.
struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0.0;
  std::string Note; ///< printed beside the value (percentile, count...)
};

/// What a workload reports back to main().
struct Report {
  std::vector<Metric> EndToEnd; ///< untraced metrics
  std::vector<Metric> PerLayer; ///< traced metrics
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< failed correctness checks

  void endToEnd(const std::string &Name, const std::string &Unit, double V,
                const std::string &Note = "") {
    EndToEnd.push_back({Name, Unit, V, Note});
  }
  void perLayer(const std::string &Name, const std::string &Unit, double V,
                const std::string &Note = "") {
    PerLayer.push_back({Name, Unit, V, Note});
  }
  void tail(const std::string &Name, const Dist &D);
  /// Records a correctness check; a false \p Ok fails the run.
  void check(bool Ok, const std::string &What);
};

/// Process peak resident set, in MB.
double peakRssMb();

/// Human-readable note for a tail value ("p97.5 of 400").
std::string tailNote(const Dist::Tail &T);

/// Turns the process-wide telemetry recorder on for a traced phase
/// (per-sweep log-joint off, so traced sweeps do the same work as
/// untraced ones) or off again.
void setTracing(bool On);

/// Span durations and counts by name prefix, read from the recorder.
struct SpanTotals {
  uint64_t Count = 0;
  double Ms = 0.0;
};
SpanTotals spanTotals(const std::vector<augur::TraceEvent> &Events,
                      const std::string &Name);
SpanTotals spanTotalsPrefix(const std::vector<augur::TraceEvent> &Events,
                            const std::string &Prefix);
/// Sum of every counter whose key ends with \p Suffix (all chains).
uint64_t counterSum(const std::map<std::string, uint64_t> &Counters,
                    const std::string &Suffix);

/// Splits the per-update spans ("chain<k>/update/<name>") by the
/// executor \p Exec names for each update ("tree" when unnamed): totals
/// "<executor>_ms", plus "runs" and "plan_runs" counts. Host-cc time
/// (compile/cgen/* spans nested in an update, the native backend's lazy
/// first-run compile) is cgen's and is taken out.
std::map<std::string, double>
executorSplit(const std::vector<augur::TraceEvent> &Events,
              const std::map<std::string, std::string> &Exec);

/// Number of entries in \p Dir (0 when it does not exist).
size_t countEntries(const std::string &Dir);
/// Removes everything inside \p Dir, keeping the directory.
void clearDir(const std::string &Dir);

/// Which executor runs an update of \p P: "native", "plan" or "tree".
std::string executorOf(augur::MCMCProgram &P,
                       const augur::CompiledUpdate &CU);

/// The workloads (InProcess.cpp, ServeOpen.cpp).
void runGibbsLda(const Options &O, Report &R);
void runHmcHlrNative(const Options &O, Report &R);
void runServeOpen(const Options &O, Report &R);

} // namespace perfbench

#endif // AUGUR_PERFBENCH_COMMON_H
