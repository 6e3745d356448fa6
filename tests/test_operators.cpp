#include <gtest/gtest.h>

#include <cmath>

#include "moo/operators/blx_alpha.hpp"
#include "moo/operators/de.hpp"
#include "moo/operators/polynomial_mutation.hpp"
#include "moo/operators/sbx.hpp"
#include "moo/operators/selection.hpp"

namespace aedbmls::moo {
namespace {

const std::vector<std::pair<double, double>> kUnitBounds{{0.0, 1.0},
                                                         {0.0, 1.0},
                                                         {0.0, 1.0}};

TEST(PaperBlx, OffsetStaysInsideEq2Envelope) {
  // Eq. 2: offset in phi*[-2, 1) with phi = alpha*|sp - tp|.
  Xoshiro256 rng(1);
  const double sp = 5.0;
  const double tp = 3.0;
  const double alpha = 0.2;
  const double phi = alpha * std::fabs(sp - tp);  // 0.4
  for (int i = 0; i < 20000; ++i) {
    const double v = paper_blx_step(sp, tp, alpha, rng);
    EXPECT_GE(v, sp - 2.0 * phi - 1e-12);
    EXPECT_LT(v, sp + phi);
  }
}

TEST(PaperBlx, AsymmetricDownwardBias) {
  // Mean offset is phi*(3*0.5 - 2) = -0.5*phi: the paper's operator leans
  // toward smaller values.
  Xoshiro256 rng(2);
  const double sp = 5.0;
  const double tp = 3.0;
  double sum = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += paper_blx_step(sp, tp, 0.2, rng) - sp;
  EXPECT_NEAR(sum / kDraws, -0.5 * 0.4, 0.01);
}

TEST(PaperBlx, ZeroDistanceFixedPoint) {
  Xoshiro256 rng(3);
  EXPECT_DOUBLE_EQ(paper_blx_step(4.0, 4.0, 0.2, rng), 4.0);
}

TEST(PaperBlx, AlphaScalesPerturbation) {
  Xoshiro256 rng_small(4);
  Xoshiro256 rng_large(4);  // same stream: same rho draws
  const double small = std::fabs(paper_blx_step(5.0, 3.0, 0.1, rng_small) - 5.0);
  const double large = std::fabs(paper_blx_step(5.0, 3.0, 0.3, rng_large) - 5.0);
  EXPECT_NEAR(large, 3.0 * small, 1e-9);
}

TEST(SymmetricBlx, ZeroMeanOffset) {
  Xoshiro256 rng(5);
  double sum = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    sum += symmetric_blx_step(5.0, 3.0, 0.2, rng) - 5.0;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.01);
}

TEST(Sbx, ChildrenRespectBounds) {
  Xoshiro256 rng(7);
  SbxParams params;
  const std::vector<double> p1{0.1, 0.9, 0.5};
  const std::vector<double> p2{0.9, 0.1, 0.5};
  for (int i = 0; i < 2000; ++i) {
    const auto [c1, c2] = sbx_crossover(p1, p2, params, kUnitBounds, rng);
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_GE(c1[d], 0.0);
      EXPECT_LE(c1[d], 1.0);
      EXPECT_GE(c2[d], 0.0);
      EXPECT_LE(c2[d], 1.0);
    }
  }
}

TEST(Sbx, HighEtaStaysNearParents) {
  Xoshiro256 rng(8);
  SbxParams tight;
  tight.eta = 1000.0;
  tight.crossover_probability = 1.0;
  const std::vector<double> p1{0.3};
  const std::vector<double> p2{0.7};
  const std::vector<std::pair<double, double>> bounds{{0.0, 1.0}};
  int near_parents = 0;
  constexpr int kDraws = 1000;
  for (int i = 0; i < kDraws; ++i) {
    const auto [c1, c2] = sbx_crossover(p1, p2, tight, bounds, rng);
    if (std::fabs(c1[0] - 0.3) < 0.02 || std::fabs(c1[0] - 0.7) < 0.02) {
      ++near_parents;
    }
  }
  EXPECT_GT(near_parents, kDraws * 9 / 10);
}

TEST(Sbx, ZeroProbabilityReturnsParents) {
  Xoshiro256 rng(9);
  SbxParams off;
  off.crossover_probability = 0.0;
  const std::vector<double> p1{0.25, 0.5, 0.75};
  const std::vector<double> p2{0.75, 0.5, 0.25};
  const auto [c1, c2] = sbx_crossover(p1, p2, off, kUnitBounds, rng);
  EXPECT_EQ(c1, p1);
  EXPECT_EQ(c2, p2);
}

TEST(PolynomialMutation, StaysInBounds) {
  Xoshiro256 rng(10);
  PolynomialMutationParams params{1.0, 20.0};
  for (int i = 0; i < 2000; ++i) {
    std::vector<double> x{0.0, 0.5, 1.0};
    polynomial_mutation(x, params, kUnitBounds, rng);
    for (const double v : x) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(PolynomialMutation, ZeroProbabilityIsIdentity) {
  Xoshiro256 rng(11);
  PolynomialMutationParams params{0.0, 20.0};
  std::vector<double> x{0.1, 0.2, 0.3};
  const std::vector<double> before = x;
  polynomial_mutation(x, params, kUnitBounds, rng);
  EXPECT_EQ(x, before);
}

TEST(PolynomialMutation, PerturbsWhenCertain) {
  Xoshiro256 rng(12);
  PolynomialMutationParams params{1.0, 20.0};
  std::vector<double> x{0.5, 0.5, 0.5};
  polynomial_mutation(x, params, kUnitBounds, rng);
  EXPECT_FALSE(x[0] == 0.5 && x[1] == 0.5 && x[2] == 0.5);
}

TEST(De, TrialMatchesFormulaWhenCrAlwaysCrosses) {
  Xoshiro256 rng(13);
  DeParams params{0.5, 1.0};  // CR = 1: every gene from the mutant
  const std::vector<double> target{0.5, 0.5};
  const std::vector<double> base{0.4, 0.6};
  const std::vector<double> a{0.8, 0.2};
  const std::vector<double> b{0.6, 0.4};
  const std::vector<std::pair<double, double>> bounds{{0.0, 1.0}, {0.0, 1.0}};
  const auto trial = de_rand_1_bin(target, base, a, b, params, bounds, rng);
  EXPECT_NEAR(trial[0], 0.4 + 0.5 * (0.8 - 0.6), 1e-12);
  EXPECT_NEAR(trial[1], 0.6 + 0.5 * (0.2 - 0.4), 1e-12);
}

TEST(De, AtLeastOneGeneFromMutant) {
  Xoshiro256 rng(14);
  DeParams params{0.9, 0.0};  // CR = 0: only j_rand crosses
  const std::vector<double> target{0.5, 0.5, 0.5};
  const std::vector<double> base{0.1, 0.1, 0.1};
  const auto trial = de_rand_1_bin(target, base, base, base, params,
                                   kUnitBounds, rng);
  int changed = 0;
  for (const double v : trial) {
    if (v != 0.5) ++changed;
  }
  EXPECT_EQ(changed, 1);
}

TEST(De, ClampsToBounds) {
  Xoshiro256 rng(15);
  DeParams params{10.0, 1.0};  // huge F forces out-of-bounds mutants
  const std::vector<double> target{0.5};
  const std::vector<double> base{0.9};
  const std::vector<double> a{1.0};
  const std::vector<double> b{0.0};
  const std::vector<std::pair<double, double>> bounds{{0.0, 1.0}};
  const auto trial = de_rand_1_bin(target, base, a, b, params, bounds, rng);
  EXPECT_LE(trial[0], 1.0);
  EXPECT_GE(trial[0], 0.0);
}

TEST(Tournament, LowerRankAlwaysWins) {
  Xoshiro256 rng(16);
  const std::vector<std::size_t> ranks{0, 1};
  const std::vector<double> crowding{0.0, 100.0};
  for (int i = 0; i < 200; ++i) {
    const std::size_t winner = tournament_select(ranks, crowding, rng);
    // Whenever the two candidates differ, index 0 must win; ties pick 0 or 1.
    if (winner == 1) {
      // only possible when both draws were index 1
      continue;
    }
    EXPECT_EQ(winner, 0u);
  }
}

TEST(Tournament, CrowdingBreaksRankTies) {
  Xoshiro256 rng(17);
  const std::vector<std::size_t> ranks{0, 0};
  const std::vector<double> crowding{5.0, 1.0};
  int zero_wins = 0;
  for (int i = 0; i < 1000; ++i) {
    if (tournament_select(ranks, crowding, rng) == 0) ++zero_wins;
  }
  EXPECT_GT(zero_wins, 700);  // wins all mixed draws (~75% incl. (0,0))
}

}  // namespace
}  // namespace aedbmls::moo
