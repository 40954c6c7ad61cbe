//===- tests/parallel_artifact_test.cpp - Compile once, run many *- C++ -*-===//
//
// One compiled artifact serves every chain (DESIGN.md section 13):
//
//  * Infer::sampleChains builds its chains from the artifact compile()
//    built — one compiler pipeline and one host-cc build per native
//    update procedure, however many chains run;
//  * native update procedures are built when the artifact is, so no
//    chain ever sees one "not yet compiled";
//  * chains that share pooled native map-reduce modules concurrently
//    (the module's pool try-lock, per-chain partial buffers and
//    profile tables) produce exactly the streams they produce one at a
//    time.
//
// Named Parallel* so the `parallel` ctest label, and with it the
// ThreadSanitizer preset, covers the concurrent case.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/Infer.h"
#include "cgen/Native.h"
#include "models/PaperModels.h"
#include "support/PhiloxRNG.h"
#include "telemetry/Telemetry.h"

using namespace augur;

namespace {

/// A small logistic-regression instance for models::HLR, whose
/// likelihood and gradient the native backend compiles.
struct HlrCase {
  std::vector<Value> Args;
  Env Data;

  HlrCase(int64_t N, int64_t Kf, uint64_t DataSeed) {
    RNG Rng(DataSeed);
    BlockedReal X = BlockedReal::rect(N, Kf, 0.0);
    BlockedInt Y = BlockedInt::flat(N, 0);
    for (int64_t I = 0; I < N; ++I) {
      double Dot = 0.5;
      for (int64_t J = 0; J < Kf; ++J) {
        X.at(I, J) = Rng.gauss();
        Dot += X.at(I, J) * (J % 2 == 0 ? 1.5 : -1.5);
      }
      Y.at(I) = Rng.uniform() < 1.0 / (1.0 + std::exp(-Dot)) ? 1 : 0;
    }
    Args = {Value::realScalar(1.0), Value::intScalar(N),
            Value::intScalar(Kf),
            Value::realVec(std::move(X),
                           Type::vec(Type::vec(Type::realTy())))};
    Data["y"] = Value::intVec(std::move(Y));
  }
};

CompileOptions hlrOptions(bool Native, int Chains) {
  CompileOptions O;
  O.Seed = 0xA271;
  O.NativeCpu = Native;
  O.Par.Chains = Chains;
  O.Hmc.StepSize = 0.02;
  O.Hmc.LeapfrogSteps = 5;
  return O;
}

/// Turns the process-wide recorder on, empty.
void freshRecorder() {
  TelemetryConfig TC;
  TC.Enabled = true;
  Recorder::global().configure(TC);
  Recorder::global().reset();
}

/// Span counts by name, for names starting with \p Prefix.
std::map<std::string, int> spanCounts(const std::string &Prefix) {
  std::map<std::string, int> N;
  for (const TraceEvent &E : Recorder::global().traceEvents())
    if (E.Name.rfind(Prefix, 0) == 0)
      ++N[E.Name];
  return N;
}

bool bitIdentical(const Value &A, const Value &B) {
  if (A.isRealScalar() && B.isRealScalar()) {
    double X = A.asReal(), Y = B.asReal();
    return std::memcmp(&X, &Y, sizeof(double)) == 0;
  }
  if (A.isRealVec() && B.isRealVec()) {
    const auto &FA = A.realVec().flat(), &FB = B.realVec().flat();
    return FA.size() == FB.size() &&
           (FA.empty() || std::memcmp(FA.data(), FB.data(),
                                      FA.size() * sizeof(double)) == 0);
  }
  return A == B;
}

void expectSameDraws(const SampleSet &A, const SampleSet &B, int Chain) {
  ASSERT_EQ(A.Draws.size(), B.Draws.size()) << "chain " << Chain;
  for (const auto &KV : A.Draws) {
    const auto &Other = B.Draws.at(KV.first);
    ASSERT_EQ(KV.second.size(), Other.size()) << KV.first;
    for (size_t I = 0; I < Other.size(); ++I)
      EXPECT_TRUE(bitIdentical(KV.second[I], Other[I]))
          << "chain " << Chain << " " << KV.first << " draw " << I;
  }
}

} // namespace

TEST(ParallelArtifact, NativeChainsCompileOnce) {
  freshRecorder();
  HlrCase H(60, 3, 0xC0);
  Infer Aug(models::HLR);
  Aug.setCompileOpt(hlrOptions(/*Native=*/true, /*Chains=*/4));
  ASSERT_TRUE(Aug.compile(H.Args, H.Data).ok());

  // Every update procedure is built with the artifact: none waits for
  // a first run, and the HLR likelihood and gradient both go native.
  auto *NE = dynamic_cast<NativeEngine *>(&Aug.program().engine());
  ASSERT_NE(NE, nullptr);
  std::vector<std::string> UpdateProcs;
  for (const auto &CU : Aug.program().updates())
    for (const std::string *P : {&CU.GibbsProc, &CU.LLProc, &CU.GradProc})
      if (!P->empty())
        UpdateProcs.push_back(*P);
  ASSERT_EQ(UpdateProcs.size(), 2u);
  for (const std::string &P : UpdateProcs) {
    EXPECT_NE(NE->fallbackReason(P), "not yet compiled") << P;
    EXPECT_TRUE(NE->isNative(P)) << P << ": " << NE->fallbackReason(P);
  }

  SampleOptions SO;
  SO.NumSamples = 4;
  auto R = Aug.sampleChains(SO);
  ASSERT_TRUE(R.ok()) << R.message();
  ASSERT_EQ(R->size(), 4u);

  EXPECT_EQ(spanCounts("compile/total")["compile/total"], 1);
  std::map<std::string, int> Cgen = spanCounts("compile/cgen/");
  for (const std::string &P : UpdateProcs)
    EXPECT_EQ(Cgen["compile/cgen/" + P], 1) << P;
  // Procedures reached only through logJoint() build on first use, at
  // most once per artifact too.
  for (const auto &KV : Cgen)
    EXPECT_EQ(KV.second, 1) << KV.first;
}

TEST(ParallelArtifact, InterpretedChainsCompileOnce) {
  freshRecorder();
  HlrCase H(60, 3, 0xC1);
  Infer Aug(models::HLR);
  Aug.setCompileOpt(hlrOptions(/*Native=*/false, /*Chains=*/4));
  ASSERT_TRUE(Aug.compile(H.Args, H.Data).ok());
  SampleOptions SO;
  SO.NumSamples = 4;
  auto R = Aug.sampleChains(SO);
  ASSERT_TRUE(R.ok()) << R.message();
  ASSERT_EQ(R->size(), 4u);
  EXPECT_EQ(spanCounts("compile/total")["compile/total"], 1);
  EXPECT_TRUE(spanCounts("compile/cgen/").empty());
}

TEST(ParallelArtifact, ConcurrentPooledNativeChainsMatchSequential) {
  HlrCase H(400, 4, 0xC2);
  CompileOptions O = hlrOptions(/*Native=*/true, /*Chains=*/2);
  O.Par.NumThreads = 2;
  O.Reduce = ReduceMode::MapReduce;
  // Likelihood-only updates: every accumulation site of their native
  // procedures is privatized (map-reduce), so each chain's stream is
  // the same whichever caller holds the module pool. (The HLR gradient
  // keeps atomic sites, whose summation order is not pinned.)
  O.UserSchedule = "MH sigma2 (*) ESlice b (*) ESlice theta";
  Infer Aug(models::HLR);
  Aug.setCompileOpt(O);
  ASSERT_TRUE(Aug.compile(H.Args, H.Data).ok());
  SampleOptions SO;
  SO.NumSamples = 12;
  SO.TrackLogJoint = true;

  // Two chains over the pool at once, sharing every native module.
  auto Concurrent = Aug.sampleChains(SO);
  ASSERT_TRUE(Concurrent.ok()) << Concurrent.message();
  ASSERT_EQ(Concurrent->size(), 2u);

  // The same chains of the same artifact, one at a time.
  for (int C = 0; C < 2; ++C) {
    MCMCProgram Chain(Aug.artifact(), philoxMix(O.Seed, uint64_t(C)), C);
    ASSERT_TRUE(Chain.init().ok());
    auto Alone = collectSamples(Chain, SO);
    ASSERT_TRUE(Alone.ok()) << Alone.message();
    EXPECT_EQ(Alone->ChainId, C);
    expectSameDraws((*Concurrent)[size_t(C)], *Alone, C);
    for (size_t I = 0; I < Alone->LogJoint.size(); ++I)
      EXPECT_TRUE(bitIdentical(Value::realScalar(Alone->LogJoint[I]),
                               Value::realScalar(
                                   (*Concurrent)[size_t(C)].LogJoint[I])))
          << "chain " << C << " log joint " << I;
  }
  auto *NE = dynamic_cast<NativeEngine *>(&Aug.program().engine());
  ASSERT_NE(NE, nullptr);
  for (const auto &CU : Aug.program().updates())
    EXPECT_TRUE(NE->isNative(CU.LLProc)) << NE->fallbackReason(CU.LLProc);
}
