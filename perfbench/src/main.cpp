//===- perfbench/src/main.cpp - Benchmark entry point ----------*- C++ -*-===//
///
/// \file
/// augur_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                 [--tiny] [--inject-mismatch] [--git-sha SHA]
///                 [--work-dir DIR] [--native-dir DIR]
///
/// Runs one workload, prints a host stamp, the correctness checks and
/// every metric by name with its unit, and ends with one JSON line:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
/// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
/// metrics. Exits 1 when a correctness check fails, 2 on bad usage.
///
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dlfcn.h>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "Common.h"

#ifndef AUGUR_PERFBENCH_BUILD_TYPE
#define AUGUR_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef AUGUR_PERFBENCH_CXX
#define AUGUR_PERFBENCH_CXX "unknown"
#endif

namespace {

using MkdtempFn = char *(*)(char *);
MkdtempFn RealMkdtemp = nullptr;
std::string NativeScratch;

} // namespace

/// The native backend compiles emitted C in a fresh directory made from
/// the fixed template "/tmp/augur_native_XXXXXX" (cgen/Native.cpp). The
/// benchmark must read and write only inside its checkout, so this
/// definition, which the linker prefers to the C library's for the
/// library code linked into this binary, rewrites that one template to
/// a directory under the checkout (the rewritten path is shorter, so it
/// fits the caller's buffer). Each directory is one host-cc call, which
/// also lets the benchmark count cc calls made in forked sandbox
/// workers. Any other template passes through unchanged.
extern "C" char *mkdtemp(char *Template) {
  static const char HostTemplate[] = "/tmp/augur_native_XXXXXX";
  if (!NativeScratch.empty() && std::strcmp(Template, HostTemplate) == 0) {
    std::string Local = NativeScratch + "/XXXXXX";
    if (Local.size() < sizeof(HostTemplate))
      std::memcpy(Template, Local.c_str(), Local.size() + 1);
  }
  return RealMkdtemp ? RealMkdtemp(Template) : nullptr;
}

namespace {

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t C = Line.find(':');
      return C == std::string::npos ? Line : Line.substr(C + 2);
    }
  return "unknown";
}

/// JSON string escaping for the few free-text fields printed.
std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

/// %.17g keeps every digit; a non-finite value (a tail that falls on a
/// failed request) prints as the largest double so the line stays JSON.
std::string number(double V) {
  if (!std::isfinite(V))
    V = V < 0 ? -1.7976931348623157e308 : 1.7976931348623157e308;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: augur_perfbench --workload "
               "gibbs-lda|hmc-hlr-native|serve-open --seed N "
               "--seconds S --trace 0|1 [--tiny] [--inject-mismatch]\n",
               Msg);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  using namespace perfbench;
  RealMkdtemp = reinterpret_cast<MkdtempFn>(dlsym(RTLD_NEXT, "mkdtemp"));
  Options O;
  std::string GitSha = "unknown";
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Val = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--tiny") {
      O.Tiny = true;
    } else if (A == "--inject-mismatch") {
      O.InjectMismatch = true;
    } else if (!(V = Val())) {
      return usage(("missing value for " + A).c_str());
    } else if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::atof(V);
    } else if (A == "--trace") {
      O.Trace = std::string(V) == "1";
    } else if (A == "--git-sha") {
      GitSha = V;
    } else if (A == "--work-dir") {
      O.WorkDir = V;
    } else if (A == "--native-dir") {
      O.NativeDir = V;
    } else {
      return usage(("unknown flag " + A).c_str());
    }
  }
  if (O.Seconds <= 0)
    return usage("--seconds must be positive");
  if (O.WorkDir.empty())
    O.WorkDir = ".bench_build/run";
  if (O.NativeDir.empty())
    O.NativeDir = ".bench_build/nat";
  std::filesystem::create_directories(O.WorkDir);
  std::filesystem::create_directories(O.NativeDir);
  if (O.NativeDir.size() + 7 < 25 && O.NativeDir[0] != '/')
    NativeScratch = O.NativeDir;
  else
    std::printf("warning: native scratch dir too long to redirect; host cc "
                "writes under /tmp\n");

  std::printf("host: nproc=%u cpu=%s compiler=%s build=%s git=%s\n",
              std::thread::hardware_concurrency(), cpuModel().c_str(),
              AUGUR_PERFBENCH_CXX, AUGUR_PERFBENCH_BUILD_TYPE, GitSha.c_str());
  std::printf("workload=%s seed=%llu seconds=%g trace=%d%s\n",
              O.Workload.c_str(), (unsigned long long)O.Seed, O.Seconds,
              int(O.Trace), O.Tiny ? " tiny" : "");
  std::fflush(stdout);

  Report R;
  if (O.Workload == "gibbs-lda")
    runGibbsLda(O, R);
  else if (O.Workload == "hmc-hlr-native")
    runHmcHlrNative(O, R);
  else if (O.Workload == "serve-open")
    runServeOpen(O, R);
  else
    return usage(("unknown workload '" + O.Workload + "'").c_str());

  const std::vector<Metric> &Ms = O.Trace ? R.PerLayer : R.EndToEnd;
  for (const auto &M : Ms)
    std::printf("metric %-30s %14.4f %-6s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
  bool Correct = R.Failures.empty();
  std::string Json = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I)
    Json += (I ? ", " : "") + quoted(Ms[I].Name) + ": {\"value\": " +
            number(Ms[I].Value) + ", \"unit\": " + quoted(Ms[I].Unit) + "}";
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
