//===- perfbench/src/ServeOpen.cpp - serve-open ----------------*- C++ -*-===//
///
/// \file
/// An in-process serve::Server driven open-loop over its wire protocol.
/// Arrivals are Poisson at fixed offered rates, split over a few
/// connections that one generator thread serves: it sends every request
/// when it is due, whether or not earlier ones finished (requests are
/// pipelined), and matches response frames to requests by their id.
/// Every request is timed from when it was due, so a stall charges the
/// requests that queue behind it, and the generator's own lateness is
/// reported.
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <arpa/inet.h>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "Common.h"
#include "api/Infer.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Workloads.h"
#include "support/PhiloxRNG.h"
#include "support/RNG.h"

using namespace augur;
using namespace augur::serve;

namespace perfbench {

namespace {

// Constants fixed once from runs of the seed commit on a 4-core host
// (see perfbench/README.md); never recomputed per run. The limit is
// about 8x the unloaded p50 and 4x the unloaded tail, so that on this
// shared host only queueing, not a burst of host noise, crosses it. The
// nominal rate is well under the measured capacity (about a sixth): at a
// half, a slow episode of the host saturates the daemon and every latency
// turns into queueing.
constexpr double LatencyLimitMs = 50.0;
constexpr double NominalRps = 40.0;
/// Offered rates of the ladder, ascending (x1.25 per step).
constexpr double Ladder[] = {60,  75,  94,  117, 146, 183, 229,
                             286, 358, 447, 559, 699, 874};
/// Ladder steps are judged by the median over windows of this length of
/// each window's tail, so one burst of host noise moves one window.
constexpr double LadderWindowSecs = 0.5;
/// Failing steps in a row that end the ladder: a burst of host noise
/// can fail two short steps at a rate far below capacity.
constexpr size_t LadderFailRun = 3;
/// Bisection steps between the last passing and the first failing
/// ladder rate: the x1.25 steps are coarse next to the daemon's sharp
/// overload cliff.
constexpr int RefineSteps = 2;
constexpr int Connections = 4;
constexpr double HotShare = 0.5;    ///< share of the hot model (gmm)
constexpr double NativeShare = 0.25;///< share with NativeCpu = true
constexpr int SetupRepeats = 7;
constexpr double WarmupSecs = 2.5;

/// One open-loop request and what came back for it.
struct Req {
  double Due = 0, Sent = 0, FirstDraw = 0, LastDraw = 0, Done = 0;
  int Model = 0;
  int Conn = 0;
  bool Native = false;
  uint64_t Seed = 0;
  bool Ok = false, Refused = false, Keep = false;
  std::string Error;
  double ElapsedMs = 0;
  bool CacheHit = false;
  uint64_t Trace = 0;
  int Draws = 0;
  std::vector<std::string> Values;  ///< encoded draws (Keep only)

  double latencyMs() const { return Ok ? (Done - Due) * 1e3 : INFINITY; }
  /// Mean time between consecutive draw frames. Per request, not per
  /// frame: the socket and the sandbox relay deliver frames in bursts, so
  /// single frame gaps measure batching, not sweeps.
  double drawGapMs() const {
    return (LastDraw - FirstDraw) * 1e3 / double(Draws - 1);
  }
};

/// One connection: a TCP socket to the daemon.
class Conn {
public:
  explicit Conn(int Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return;
    sockaddr_in A{};
    A.sin_family = AF_INET;
    A.sin_port = htons(uint16_t(Port));
    A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;
  int fd() const { return Fd; }

private:
  int Fd = -1;
};

SampleRequest requestFor(const Req &R) {
  static const std::vector<SampleRequest> Mix = standardWorkloads();
  SampleRequest SR = Mix[size_t(R.Model)];
  SR.NativeCpu = R.Native;
  SR.Seed = R.Seed;
  return SR;
}

/// Drives \p Reqs (sorted by Due; each names its connection) over
/// \p NumConns connections from this one thread: sends each request on
/// its connection when due, reads response frames from every connection
/// in between, and stops once every request has ended or \p GiveUp
/// passes. A request's id is its index in \p Reqs plus one.
void drive(int Port, std::vector<Req> &Reqs, int NumConns, double GiveUp) {
  std::vector<std::unique_ptr<Conn>> Cs;
  std::vector<struct pollfd> Fds;
  for (int C = 0; C < NumConns; ++C) {
    Cs.push_back(std::make_unique<Conn>(Port));
    Fds.push_back({Cs.back()->fd(), POLLIN, 0});
  }
  std::vector<size_t> Open(size_t(NumConns), 0);
  size_t Next = 0;
  auto pending = [&] {
    size_t N = 0;
    for (size_t C = 0; C < Open.size(); ++C)
      N += Fds[C].fd >= 0 ? Open[C] : 0;
    return N;
  };
  while (Next < Reqs.size() || pending() > 0) {
    double Now = nowSec();
    if (Now > GiveUp)
      break;
    if (Next < Reqs.size() && Now >= Reqs[Next].Due) {
      Req &R = Reqs[Next];
      size_t C = size_t(R.Conn);
      Request Q;
      Q.Kind = Request::Op::Sample;
      Q.Id = Next + 1;
      Q.Sample = requestFor(R);
      R.Sent = nowSec();
      Status St = Fds[C].fd < 0 ? Status::error("connection lost")
                                : writeJsonFrame(Fds[C].fd, encodeRequest(Q));
      ++Next;
      if (!St.ok()) {
        R.Error = "send: " + St.message();
        R.Done = nowSec();
      } else {
        ++Open[C];
      }
      continue;
    }
    // Poll without sleeping: on a shared virtual machine the generator's
    // own wake-ups can take milliseconds, which would be charged to the
    // daemon as late sends and late-read frames.
    struct timespec Zero = {0, 0};
    if (::ppoll(Fds.data(), Fds.size(), &Zero, nullptr) <= 0)
      continue;
    for (size_t C = 0; C < Fds.size(); ++C) {
      if (Fds[C].fd < 0 || !(Fds[C].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      bool Eof = false;
      Result<Json> F = readJsonFrame(Fds[C].fd, Eof);
      double T = nowSec();
      if (!F.ok() || Eof) {
        Fds[C].fd = -1; // its open requests stay unfinished
        continue;
      }
      int64_t Id = F->getInt("id", -1);
      if (Id < 1 || uint64_t(Id) > Reqs.size())
        continue;
      Req *R = &Reqs[size_t(Id - 1)];
      std::string Type = F->getStr("type", "");
      if (Type == "draw") {
        if (R->Draws == 0)
          R->FirstDraw = T;
        R->LastDraw = T;
        ++R->Draws;
        if (R->Keep)
          if (const Json *V = F->find("values"))
            R->Values.push_back(V->dump());
      } else if (Type == "done" || Type == "error") {
        R->Done = T;
        R->Ok = Type == "done";
        R->ElapsedMs = F->getReal("elapsed_ms", 0.0);
        R->CacheHit = F->getBool("cache_hit", false);
        R->Trace = uint64_t(F->getInt("trace", 0));
        if (!R->Ok) {
          R->Error = F->getStr("code", "error");
          R->Refused = R->Error == "overloaded";
        }
        --Open[C];
      }
    }
  }
  for (auto &R : Reqs)
    if (!R.Ok && R.Error.empty())
      R.Error = R.Sent > 0 ? "unfinished" : "never sent";
}

/// One step at a fixed offered rate.
struct Step {
  double Rate = 0;
  std::vector<Req> Reqs; ///< all connections, by due time
};

/// Builds the arrival schedule: Poisson at \p Rate (each connection an
/// independent Poisson stream at Rate/Connections), the model and
/// backend mix, and a fresh seed per request, all from \p Seed.
Step schedule(double Rate, double Secs, uint64_t Seed, double T0) {
  Step S;
  S.Rate = Rate;
  RNG Rng(Seed);
  for (int C = 0; C < Connections; ++C) {
    double T = 0;
    for (;;) {
      T += -std::log(1.0 - Rng.uniform()) / (Rate / Connections);
      if (T >= Secs)
        break;
      Req R;
      R.Due = T0 + T;
      double U = Rng.uniform();
      R.Model = U < HotShare ? 0 : U < HotShare + (1 - HotShare) / 2 ? 1 : 2;
      R.Native = Rng.uniform() < NativeShare;
      R.Seed = philoxMix(Seed, S.Reqs.size() + 1);
      R.Conn = C;
      S.Reqs.push_back(R);
    }
  }
  std::stable_sort(S.Reqs.begin(), S.Reqs.end(),
                   [](const Req &A, const Req &B) { return A.Due < B.Due; });
  return S;
}

/// Runs one step against the daemon on \p Port, all connections from
/// this thread.
void runStep(Step &S, int Port) {
  double GiveUp = (S.Reqs.empty() ? nowSec() : S.Reqs.back().Due) + 10.0;
  drive(Port, S.Reqs, Connections, GiveUp);
}

/// Median over windows of each window's tail.
double windowMedian(const std::map<int, Dist> &Windows) {
  Dist Tails;
  for (const auto &[W, D] : Windows)
    if (!D.empty())
      Tails.add(D.tail().Value);
  return Tails.median();
}

/// Latencies of a step's requests by window of \p Secs of due time
/// (failures and refusals count as infinite).
std::map<int, Dist> latencyWindows(const Step &S, double Secs) {
  std::map<int, Dist> W;
  for (const auto &R : S.Reqs)
    W[int((R.Due - S.Reqs.front().Due) / Secs)].add(R.latencyMs());
  return W;
}

/// The tail a ladder step is judged by: the median over its windows of
/// each window's tail.
double stepTail(const Step &S) {
  return S.Reqs.empty() ? 0.0
                        : windowMedian(latencyWindows(S, LadderWindowSecs));
}

/// Requests that missed the latency limit (failures and refusals
/// included).
size_t misses(const Step &S) {
  size_t M = 0;
  for (const auto &R : S.Reqs)
    M += R.latencyMs() > LatencyLimitMs ? 1 : 0;
  return M;
}

void printStep(const char *Label, const Step &S) {
  size_t Ok = 0, Failed = 0, Refused = 0;
  Dist Lat, Late;
  for (const auto &R : S.Reqs) {
    Ok += R.Ok;
    Refused += R.Refused;
    Failed += !R.Ok && !R.Refused;
    Lat.add(R.latencyMs());
    Late.add((R.Sent - R.Due) * 1e3);
  }
  Dist::Tail LT = Lat.tail(), GT = Late.tail();
  std::printf("%s %6.1f rps: sent %zu ok %zu failed %zu refused %zu | "
              "latency p50 %.2f tail %.2f ms (%s), windowed %.2f | "
              "lateness tail %.3f ms | misses %zu\n",
              Label, S.Rate, S.Reqs.size(), Ok, Failed, Refused, Lat.median(),
              LT.Value, tailNote(LT).c_str(), stepTail(S), GT.Value,
              misses(S));
}

std::string windowNote(const std::map<int, Dist> &Windows,
                       const Dist::Tail &Whole) {
  size_t N = 0;
  double Pct = 0;
  for (const auto &[W, D] : Windows) {
    N += D.size();
    Pct = D.tail().Pct;
  }
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "median of %zu 1-s windows' p%.1f (%zu samples); pooled "
                "%.3f (%s)",
                Windows.size(), Pct, N, Whole.Value, tailNote(Whole).c_str());
  return Buf;
}

/// A running daemon plus its set-up time.
struct Daemon {
  std::unique_ptr<Server> S;
  double SetupSecs = 0;
  std::string Error;
};

/// Daemon start plus one warm-up request per artifact (each model on
/// each backend), sent one at a time.
Daemon startDaemon() {
  Daemon D;
  double T0 = nowSec();
  ServerOptions SO;
  SO.Workers = int(std::max(1u, std::thread::hardware_concurrency()));
  D.S = std::make_unique<Server>(SO);
  Status St = D.S->start();
  if (!St.ok()) {
    D.Error = "server start: " + St.message();
    return D;
  }
  std::vector<Req> Warm;
  for (int M = 0; M < 3; ++M)
    for (bool Native : {false, true}) {
      Req R;
      R.Model = M;
      R.Native = Native;
      R.Seed = 0x5EED + Warm.size();
      Warm.push_back(R);
    }
  for (size_t I = 0; I < Warm.size(); ++I) {
    std::vector<Req> One = {Warm[I]};
    One[0].Due = nowSec();
    drive(D.S->port(), One, 1, nowSec() + 60.0);
    if (!One[0].Ok) {
      D.Error = "warm-up request failed: " + One[0].Error;
      return D;
    }
  }
  D.SetupSecs = nowSec() - T0;
  return D;
}

/// Served draws must equal a direct Infer::sampleChains run of the same
/// request, bit for bit.
void servedVsDirect(const std::vector<Req> &Kept, const Options &O,
                    Report &R) {
  size_t Same = 0;
  for (const Req &Q : Kept) {
    SampleRequest SR = requestFor(Q);
    CompileOptions CO;
    CO.NativeCpu = SR.NativeCpu;
    CO.UserSchedule = SR.Schedule;
    CO.Seed = O.InjectMismatch ? philoxMix(SR.Seed, 0xBAD) : SR.Seed;
    CO.Par.NumThreads = SR.Threads;
    CO.Par.Chains = SR.Chains;
    Infer Aug(SR.Model);
    Aug.setCompileOpt(CO);
    std::vector<std::string> Direct;
    SampleOptions SO;
    SO.NumSamples = SR.NumSamples;
    SO.BurnIn = SR.BurnIn;
    SO.Thin = SR.Thin;
    SO.Record = SR.Record;
    SO.TrackLogJoint = SR.TrackLogJoint;
    SO.KeepDraws = false;
    SO.OnDraw = [&](uint64_t, const std::vector<std::string> &Names,
                    const std::vector<const Value *> &Row,
                    double) -> Status {
      Json V = Json::object();
      for (size_t I = 0; I < Names.size(); ++I)
        V.set(Names[I], encodeValue(*Row[I]));
      Direct.push_back(V.dump());
      return Status::success();
    };
    bool Ok = Aug.compile(SR.Args, SR.Data).ok() && Aug.sampleChains(SO).ok();
    Same += Ok && Direct == Q.Values && !Direct.empty() ? 1 : 0;
  }
  clearDir(O.NativeDir);
  R.check(Same == Kept.size() && !Kept.empty(),
          std::to_string(Same) + "/" + std::to_string(Kept.size()) +
              " served streams bit-identical to direct Infer runs");
}

/// Marks the first request of each (model, backend) kind for the
/// served-vs-direct check.
void markKept(Step &S) {
  bool Seen[3][2] = {};
  for (auto &R : S.Reqs)
    if (!Seen[R.Model][R.Native]) {
      Seen[R.Model][R.Native] = true;
      R.Keep = true;
    }
}

/// Executor labels of the served models' updates, from local compiles
/// with the daemon's options (served in-process requests only; sandboxed
/// requests record nothing in this process).
std::map<std::string, std::string> servedExecutors() {
  std::map<std::string, std::string> L;
  for (const SampleRequest &SR : standardWorkloads()) {
    CompileOptions CO;
    CO.UserSchedule = SR.Schedule;
    Infer Aug(SR.Model);
    Aug.setCompileOpt(CO);
    if (!Aug.compile(SR.Args, SR.Data).ok())
      continue;
    for (const auto &CU : Aug.program().updates())
      L[updateDisplayName(CU.U)] = executorOf(Aug.program(), CU);
  }
  return L;
}

} // namespace

void runServeOpen(const Options &O, Report &R) {
  clearDir(O.NativeDir);
  const double Scale = O.Tiny ? 0.25 : 1.0;
  // Set-up, repeated; the last daemon serves the load.
  Dist Setup;
  Daemon D;
  if (O.Trace)
    setTracing(true);
  int Repeats = O.Tiny || O.Trace ? 1 : SetupRepeats;
  for (int I = 0; I < Repeats; ++I) {
    if (D.S)
      D.S->stop();
    size_t Dirs0 = countEntries(O.NativeDir);
    D = startDaemon();
    if (!D.Error.empty()) {
      R.Attempted += 1;
      R.Failed += 1;
      R.check(false, D.Error);
      if (D.S)
        D.S->stop();
      setTracing(false);
      return;
    }
    Setup.add(D.SetupSecs);
    std::printf("setup %d: %.3f s (%zu host-cc calls)\n", I, D.SetupSecs,
                countEntries(O.NativeDir) - Dirs0);
  }
  int Port = D.S->port();
  double StepSecs = O.Seconds * Scale;
  // A fresh daemon runs several times slower for its first second or so
  // of load; that transient is set-up, not the operating point, so an
  // unmeasured warm-up load at the nominal rate comes first.
  Step Warm = schedule(NominalRps, O.Tiny ? 0.2 : WarmupSecs,
                       philoxMix(O.Seed, 9), nowSec() + 0.05);
  runStep(Warm, Port);
  printStep("warm-up", Warm);

  if (!O.Trace) {
    // Nominal step first, then the ladder.
    Step Nominal = schedule(NominalRps, 0.55 * StepSecs,
                            philoxMix(O.Seed, 10), nowSec() + 0.05);
    markKept(Nominal);
    runStep(Nominal, Port);
    printStep("nominal", Nominal);
    // Peak memory at the operating point; the ladder's overload steps
    // queue a varying amount of work.
    double RssMb = peakRssMb();
    std::vector<Step> Steps;
    double LadderSecs = std::max(0.5, 0.06 * StepSecs);
    for (size_t I = 0; I < std::size(Ladder); ++I) {
      Steps.push_back(schedule(Ladder[I], LadderSecs,
                               philoxMix(O.Seed, 100 + I), nowSec() + 0.05));
      runStep(Steps.back(), Port);
      printStep("ladder ", Steps.back());
      size_t Failing = 0;
      while (Failing < Steps.size() &&
             stepTail(Steps[Steps.size() - 1 - Failing]) > LatencyLimitMs)
        ++Failing;
      if (O.Tiny || Failing >= LadderFailRun)
        break;
    }
    // The crossing: the first step of the failing run that ended the
    // ladder (failing steps followed by a passing one were bursts of host
    // noise), narrowed by bisection against the step before it.
    size_t Cross = Steps.size();
    while (Cross > 0 && stepTail(Steps[Cross - 1]) > LatencyLimitMs)
      --Cross;
    bool HavePass = Cross > 0, HaveFail = Cross < Steps.size();
    Step Pass = HavePass ? Steps[Cross - 1] : Step();
    Step Fail = HaveFail ? Steps[Cross] : Step();
    int Refined = 0;
    for (; HavePass && HaveFail && !O.Tiny && Refined < RefineSteps;
         ++Refined) {
      Step Mid = schedule(std::sqrt(Pass.Rate * Fail.Rate), LadderSecs,
                          philoxMix(O.Seed, 200 + Refined), nowSec() + 0.05);
      runStep(Mid, Port);
      printStep("refine ", Mid);
      (stepTail(Mid) > LatencyLimitMs ? Fail : Pass) = std::move(Mid);
    }
    D.S->stop();

    std::vector<Req> Kept;
    for (const auto &Q : Nominal.Reqs)
      if (Q.Keep && Q.Ok)
        Kept.push_back(Q);
    servedVsDirect(Kept, O, R);

    // Every one-second window of due times carries the same offered load,
    // so windows differ by chance and by how much the shared host
    // disturbed them (disturbance only ever adds time): the time metrics
    // come from the quieter half of the windows, ranked by their latency
    // p50, and the reported tails are medians over those windows, so one
    // burst of host noise moves one window. Sweep times come from the hot
    // model's in-process requests: the daemon writes their draw frames as
    // its sampler makes them (a sandboxed request's frames arrive in
    // bursts through the worker relay), and one model keeps the tail off
    // the boundary between the models' sweep times.
    std::map<int, Dist> AllWin = latencyWindows(Nominal, 1.0), LatWin,
                        GapWin;
    std::vector<std::pair<double, int>> Rank;
    for (const auto &[W, D] : AllWin)
      Rank.push_back({D.median(), W});
    std::sort(Rank.begin(), Rank.end());
    Rank.resize((Rank.size() + 1) / 2);
    for (const auto &[P50, W] : Rank)
      LatWin[W] = AllWin[W];
    Dist Lat, Ttfd, Gaps;
    double Draws = 0, Within = 0, First = INFINITY, Last = 0;
    for (const auto &Q : Nominal.Reqs) {
      Draws += Q.Draws;
      Within += Q.latencyMs() <= LatencyLimitMs ? 1 : 0;
      First = std::min(First, Q.Due);
      Last = std::max(Last, Q.Done);
      int W = int(Q.Due - Nominal.Reqs.front().Due);
      if (!LatWin.count(W))
        continue;
      if (Q.Draws > 1 && !Q.Native && Q.Model == 0) {
        GapWin[W].add(Q.drawGapMs());
        Gaps.add(Q.drawGapMs());
      }
      Lat.add(Q.latencyMs());
      Ttfd.add(Q.Draws > 0 ? (Q.FirstDraw - Q.Due) * 1e3 : INFINITY);
    }
    // Operations are counted at the nominal rate, the operating point;
    // ladder steps past capacity are meant to be refused and are
    // reported per step above.
    R.Attempted += Nominal.Reqs.size();
    for (const auto &Q : Nominal.Reqs)
      R.Failed += Q.Ok ? 0 : 1;

    // The highest rate meeting the limit, interpolated linearly in rate
    // between the bracketing steps. A tail that falls on a failed or
    // refused request counts as twice the limit. A ladder that never
    // failed for good reports its top rate.
    double MaxRate = Steps.empty() ? 0 : Steps.back().Rate;
    if (HaveFail) {
      double Tail = std::min(stepTail(Fail), 2 * LatencyLimitMs);
      double PrevRate = HavePass ? Pass.Rate : 0;
      double PrevTail = HavePass ? stepTail(Pass) : 0;
      MaxRate = PrevRate + (Fail.Rate - PrevRate) *
                               (LatencyLimitMs - PrevTail) /
                               (Tail - PrevTail);
    }

    std::printf("nominal 1-s windows, latency p50/tail ms (* quieter half):");
    for (const auto &[Sec, Win] : AllWin)
      std::printf(" %.1f/%.1f%s", Win.median(), Win.tail().Value,
                  LatWin.count(Sec) ? "*" : "");
    std::printf("\n");
    double Window = Last > First ? Last - First : 1.0;
    R.endToEnd("setup_s", "s", Setup.median(),
               "median of " + std::to_string(Setup.size()) + " set-ups");
    R.endToEnd("sweep_ms_p50", "ms", Gaps.median(),
               "per-request mean draw-frame gap, " +
                   std::to_string(Gaps.size()) +
                   " in-process hot-model requests of the quieter windows");
    R.endToEnd("sweep_ms_tail", "ms", windowMedian(GapWin),
               windowNote(GapWin, Gaps.tail()));
    R.endToEnd("draws_per_s", "1/s", Draws / Window, "at the nominal rate");
    R.endToEnd("latency_p50_ms", "ms", Lat.median(),
               std::to_string(Lat.size()) + " requests at " +
                   std::to_string(int(NominalRps)) +
                   " rps in the quieter windows");
    R.endToEnd("latency_tail_ms", "ms", windowMedian(LatWin),
               windowNote(LatWin, Lat.tail()));
    R.endToEnd("ttfd_p50_ms", "ms", Ttfd.median());
    R.endToEnd("slo_met_frac", "ratio",
               Within / std::max<double>(1, Nominal.Reqs.size()),
               "within " + std::to_string(int(LatencyLimitMs)) + " ms");
    R.endToEnd("max_rate_rps", "1/s", MaxRate,
               std::to_string(Steps.size()) + " ladder and " +
                   std::to_string(Refined) + " bisection steps");
    R.endToEnd("peak_rss_mb", "MB", RssMb, "through the nominal step");
    return;
  }

  // Traced run: the set-up above was traced; read the compile layers,
  // then serve the nominal rate untraced and traced, half each.
  std::vector<TraceEvent> SetupEv = Recorder::global().traceEvents();
  SpanTotals Compile = spanTotals(SetupEv, "compile/total");
  double SetupCc = double(countEntries(O.NativeDir));
  setTracing(false);
  Step Plain = schedule(NominalRps, 0.5 * StepSecs, philoxMix(O.Seed, 10),
                        nowSec() + 0.05);
  runStep(Plain, Port);
  printStep("untraced", Plain);
  setTracing(true);
  Step Traced = schedule(NominalRps, 0.5 * StepSecs, philoxMix(O.Seed, 11),
                         nowSec() + 0.05);
  runStep(Traced, Port);
  printStep("traced  ", Traced);
  D.S->stop();
  std::vector<TraceEvent> Ev = Recorder::global().traceEvents();
  std::map<std::string, uint64_t> Cn = Recorder::global().counters();
  setTracing(false);

  for (const Step *S : {&Plain, &Traced}) {
    R.Attempted += S->Reqs.size();
    for (const auto &Q : S->Reqs)
      R.Failed += Q.Ok ? 0 : 1;
  }

  // Request spans by trace id (the done frame echoes it).
  std::map<uint64_t, double> ReqMs, CompileMs, SampleMs;
  for (const auto &E : Ev) {
    if (E.Ph != 'X' || E.Name.compare(0, 6, "serve/") != 0)
      continue;
    double Trace = -1;
    for (const auto &[K, V] : E.Args)
      if (K == "trace_id")
        Trace = V;
    if (Trace < 0)
      continue;
    double Ms = double(E.DurNanos) / 1e6;
    if (E.Name == "serve/request")
      ReqMs[uint64_t(Trace)] += Ms;
    else if (E.Name == "serve/compile")
      CompileMs[uint64_t(Trace)] += Ms;
    else if (E.Name == "serve/sample")
      SampleMs[uint64_t(Trace)] += Ms;
  }
  Dist Queue, Lock, Sample, Isolated, Late, InLat, InQueue;
  double Native = 0, Hits = 0, Done = 0, Busy = 0, First = INFINITY,
         Last = 0;
  for (const auto &Q : Traced.Reqs) {
    Late.add((Q.Sent - Q.Due) * 1e3);
    Native += Q.Native;
    if (!Q.Ok)
      continue;
    ++Done;
    Hits += Q.CacheHit;
    double QueueMs = (Q.Done - Q.Sent) * 1e3 - Q.ElapsedMs;
    Queue.add(QueueMs);
    Busy += Q.Done - Q.FirstDraw;
    First = std::min(First, Q.Due);
    Last = std::max(Last, Q.Done);
    if (Q.Native) {
      Isolated.add(Q.ElapsedMs);
      continue;
    }
    InLat.add(Q.latencyMs());
    InQueue.add(QueueMs);
    auto It = ReqMs.find(Q.Trace);
    if (It == ReqMs.end() || !SampleMs.count(Q.Trace))
      continue;
    Sample.add(SampleMs[Q.Trace]);
    Lock.add(It->second - CompileMs[Q.Trace] - SampleMs[Q.Trace]);
  }

  // Per-update executor split for the in-process requests.
  std::map<std::string, std::string> Exec = servedExecutors();
  double Sweeps = std::max<double>(1, counterSum(Cn, "/sweep/count"));
  std::map<std::string, double> Split = executorSplit(Ev, Exec);
  double FcHits = double(counterSum(Cn, "/fc/cache_hits"));
  double FcEval = double(counterSum(Cn, "/fc/factors_evaluated"));

  R.perLayer("compile.calls", "count", double(Compile.Count), "per set-up");
  R.perLayer("compile.total_ms", "ms", Compile.Ms, "per set-up");
  for (const char *Phase :
       {"frontend", "density", "kernel", "depgraph", "lowpp", "reduce"})
    R.perLayer(std::string("compile.") + Phase + "_ms", "ms",
               spanTotals(SetupEv, std::string("compile/") + Phase).Ms);
  R.perLayer("cgen.cc_calls", "count", SetupCc, "per set-up");
  R.perLayer("cgen.cc_ms", "ms", spanTotalsPrefix(SetupEv, "compile/cgen/").Ms,
             "daemon process only");
  R.perLayer("cgen.native_procs", "count", 0, "not visible: sandboxed");
  R.perLayer("cgen.fallback_procs", "count", 0, "not visible: sandboxed");
  for (const char *Ex : {"tree", "plan", "native"})
    R.perLayer(std::string("exec.") + Ex + "_ms_per_sweep", "ms",
               Split[std::string(Ex) + "_ms"] / Sweeps, "in-process requests");
  R.perLayer("exec.plan_coverage", "ratio",
             Split["runs"] > 0 ? Split["plan_runs"] / Split["runs"] : 0.0);
  R.perLayer("fc.maint_ms_per_sweep", "ms",
             double(counterSum(Cn, "/fc/maint_ns")) / 1e6 / Sweeps);
  R.perLayer("fc.hit_ratio", "ratio",
             FcHits + FcEval > 0 ? FcHits / (FcHits + FcEval) : 0.0);
  R.perLayer("parallel.chain_overlap", "ratio",
             Last > First ? Busy / (Last - First) : 0.0,
             "mean requests sampling at once");
  R.perLayer("robust.checkpoint_write_ms", "ms", 0, "no checkpoints");
  R.perLayer("robust.checkpoint_bytes", "bytes", 0, "no checkpoints");
  R.perLayer("serve.queue_ms_p50", "ms", Queue.median());
  Dist::Tail LockT = Lock.tail();
  R.perLayer("serve.lock_wait_ms_p50", "ms", Lock.median(),
             std::to_string(Lock.size()) + " in-process requests");
  R.perLayer("serve.lock_wait_ms_tail", "ms", LockT.Value, tailNote(LockT));
  R.perLayer("serve.sample_ms_p50", "ms", Sample.median());
  R.perLayer("serve.isolated_ms_p50", "ms", Isolated.median(),
             std::to_string(Isolated.size()) + " sandboxed requests");
  R.perLayer("serve.forks_per_native_request", "ratio",
             Native > 0 ? double(counterSum(Cn, "serve/sandbox/forks")) / Native
                        : 0.0);
  R.perLayer("serve.cache_hit_ratio", "ratio", Done > 0 ? Hits / Done : 0.0);
  Dist::Tail LateT = Late.tail();
  R.perLayer("serve.gen_lateness_ms_tail", "ms", LateT.Value,
             tailNote(LateT));
  Dist PlainLat, TracedLat;
  for (const auto &Q : Plain.Reqs)
    PlainLat.add(Q.latencyMs());
  for (const auto &Q : Traced.Reqs)
    TracedLat.add(Q.latencyMs());
  R.perLayer("telemetry.overhead_frac", "ratio",
             PlainLat.median() > 0
                 ? TracedLat.median() / PlainLat.median() - 1.0
                 : 0.0,
             "traced vs untraced latency_p50_ms");
  R.perLayer("error_frac", "ratio",
             double(R.Failed) / std::max<double>(1, R.Attempted));
  double Covered = InQueue.median() + Lock.median() + Sample.median();
  std::printf("accounting: queue + lock wait + sample = %.3f ms of a %.3f "
              "ms in-process latency p50 (%.0f%%)\n",
              Covered, InLat.median(),
              InLat.median() > 0 ? 100.0 * Covered / InLat.median() : 0.0);
}

} // namespace perfbench
