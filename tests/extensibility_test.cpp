//===- tests/extensibility_test.cpp - Section 7.1 extensibility -*- C++ -===//
//
// The paper's Section 7.1 argues AugurV2 is easy to extend with new
// base MCMC updates because every update decomposes into the Fig. 7
// primitives (likelihood, closed-form conditional, gradient) plus
// library code. This test follows the recipe end-to-end *without
// touching the compiler*: it builds a new base update — an
// independence Metropolis sampler that proposes from the prior — out
// of (1) a compiled likelihood procedure obtained from the existing
// pipeline and (2) ~30 lines of driver code, then verifies the update
// leaves the posterior invariant on an analytically tractable model.
//
//===----------------------------------------------------------------------===//

#include <cmath>

#include <gtest/gtest.h>

#include "compile/Compiler.h"
#include "lowpp/Reify.h"
#include "density/Forward.h"
#include "models/PaperModels.h"

using namespace augur;

namespace {

/// The new base update's library code: independence MH with the prior
/// as the proposal. AR = lik(x') / lik(x) because the prior terms
/// cancel against the proposal. Uses only the compiled likelihood
/// primitive and forward sampling — no compiler changes.
class PriorProposalUpdate {
public:
  PriorProposalUpdate(MCMCProgram &Prog, std::string Var)
      : Prog(&Prog), Var(std::move(Var)) {
    // Reuse the existing generator for the likelihood primitive
    // (everything mentioning Var except its own prior).
    const DensityModel &DM = Prog.densityModel();
    std::vector<Factor> Liks;
    for (const auto &F : DM.Joint.Factors)
      if (F.AtVar != this->Var && F.mentions(this->Var))
        Liks.push_back(F);
    LLProc = "llp_ext_" + this->Var;
    Prog.engine().addProc(
        genLikelihoodProc(LLProc, Liks, "ll_" + LLProc));
  }

  void step() {
    Engine &Eng = Prog->engine();
    Env &E = Eng.env();
    double LL0 = evalLik();
    Value Saved = E.at(Var);
    // Propose from the prior (forward sampling of the declaration).
    const ModelDecl *Decl = Prog->densityModel().TM.M.findDecl(Var);
    ASSERT_TRUE(
        forwardSampleDecl(*Decl, Prog->densityModel().TM, E, Eng.rng())
            .ok());
    double LL1 = evalLik();
    ++Proposed;
    if (std::log(Eng.rng().uniform() + 1e-300) < LL1 - LL0) {
      ++Accepted;
      return;
    }
    E[Var] = std::move(Saved);
  }

  double acceptRate() const {
    return Proposed ? double(Accepted) / Proposed : 0.0;
  }

private:
  double evalLik() {
    Prog->engine().runProc(LLProc);
    return Prog->engine().env().at("ll_" + LLProc).asReal();
  }

  MCMCProgram *Prog;
  std::string Var;
  std::string LLProc;
  uint64_t Proposed = 0, Accepted = 0;
};

} // namespace

TEST(Extensibility, PriorProposalUpdateSamplesCorrectPosterior) {
  // m ~ Normal(0, 4); y_n ~ Normal(m, 1). Posterior is analytic.
  const char *Src = "(N) => { param m ~ Normal(0.0, 4.0) ; "
                    "data y[n] ~ Normal(m, 1.0) for n <- 0 until N ; }";
  const int64_t N = 5;
  RNG DataRng(3);
  BlockedReal Y = BlockedReal::flat(N, 0.0);
  double SumY = 0.0;
  for (int64_t I = 0; I < N; ++I) {
    Y.at(I) = DataRng.gauss(1.0, 1.0);
    SumY += Y.at(I);
  }
  Env Data;
  Data["y"] = Value::realVec(std::move(Y));

  CompileOptions O;
  auto Art = Compiler::compile(Src, O, {Value::intScalar(N)}, Data);
  ASSERT_TRUE(Art.ok()) << Art.message();
  auto Prog = std::make_unique<MCMCProgram>(*Art, O.Seed, 0);
  ASSERT_TRUE(Prog->init().ok());

  // The new base update, composed alone (kernel = itself).
  PriorProposalUpdate Update(*Prog, "m");
  const int Draws = 40000;
  double Sum = 0.0, SumSq = 0.0;
  for (int I = 0; I < Draws; ++I) {
    Update.step();
    double M = Prog->state().at("m").asReal();
    Sum += M;
    SumSq += M * M;
  }
  double PostVar = 1.0 / (1.0 / 4.0 + N);
  double PostMean = PostVar * SumY;
  EXPECT_NEAR(Sum / Draws, PostMean, 0.03);
  EXPECT_NEAR(SumSq / Draws - (Sum / Draws) * (Sum / Draws), PostVar,
              0.03);
  // Independence proposals from a diffuse prior reject often but not
  // always.
  EXPECT_GT(Update.acceptRate(), 0.02);
  EXPECT_LT(Update.acceptRate(), 0.9);
}

TEST(Extensibility, NewUpdateComposesWithExistingSchedule) {
  // Compose the hand-built update with a compiled Gibbs update on a
  // two-parameter model and check both parameters move and the joint
  // stays finite (invariance of the composition, Section 4.1).
  const char *Src =
      "(N) => { param v ~ InvGamma(3.0, 3.0) ; "
      "param m ~ Normal(0.0, 25.0) ; "
      "data y[n] ~ Normal(m, v) for n <- 0 until N ; }";
  const int64_t N = 60;
  RNG DataRng(5);
  BlockedReal Y = BlockedReal::flat(N, 0.0);
  for (int64_t I = 0; I < N; ++I)
    Y.at(I) = DataRng.gauss(2.0, 1.0);
  Env Data;
  Data["y"] = Value::realVec(std::move(Y));

  CompileOptions O;
  O.UserSchedule = "Gibbs v (*) Gibbs m";
  auto Art = Compiler::compile(Src, O, {Value::intScalar(N)}, Data);
  ASSERT_TRUE(Art.ok()) << Art.message();
  auto Prog = std::make_unique<MCMCProgram>(*Art, O.Seed, 0);
  ASSERT_TRUE(Prog->init().ok());

  PriorProposalUpdate MUpdate(*Prog, "m");
  McmcCtx Ctx;
  Ctx.Eng = &Prog->engine();
  Ctx.DM = &Prog->densityModel();

  double MeanM = 0.0;
  const int Sweeps = 2000;
  for (int I = 0; I < Sweeps; ++I) {
    // v via the compiled conjugate Gibbs update, m via the new update.
    ASSERT_TRUE(runBaseUpdate(Ctx, Prog->updates()[0]).ok());
    MUpdate.step();
    MeanM += Prog->state().at("m").asReal();
  }
  EXPECT_NEAR(MeanM / Sweeps, 2.0, 0.25);
  EXPECT_TRUE(std::isfinite(Prog->logJoint()));
}
