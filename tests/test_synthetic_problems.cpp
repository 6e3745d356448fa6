#include "moo/problems/synthetic.hpp"
#include "synthetic_problems.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace aedbmls::moo {
namespace {

TEST(Schaffer, KnownValues) {
  const SchafferProblem problem;
  const auto r = problem.evaluate({0.0});
  EXPECT_DOUBLE_EQ(r.objectives[0], 0.0);
  EXPECT_DOUBLE_EQ(r.objectives[1], 4.0);
  const auto r2 = problem.evaluate({2.0});
  EXPECT_DOUBLE_EQ(r2.objectives[0], 4.0);
  EXPECT_DOUBLE_EQ(r2.objectives[1], 0.0);
}

TEST(Zdt1, OptimalFrontAtGEqualsOne) {
  const Zdt1Problem problem(10);
  std::vector<double> x(10, 0.0);
  x[0] = 0.25;
  const auto r = problem.evaluate(x);
  EXPECT_DOUBLE_EQ(r.objectives[0], 0.25);
  EXPECT_NEAR(r.objectives[1], 1.0 - std::sqrt(0.25), 1e-12);
}

TEST(Zdt1, GPenalisesTailVariables) {
  const Zdt1Problem problem(10);
  std::vector<double> off(10, 0.5);
  off[0] = 0.25;
  const auto r = problem.evaluate(off);
  EXPECT_GT(r.objectives[1], 1.0 - std::sqrt(0.25));
}

TEST(Dtlz2, FrontIsUnitSphere) {
  const Dtlz2Problem problem(7);
  std::vector<double> x(7, 0.5);  // g = 0 at x_i = 0.5
  x[0] = 0.3;
  x[1] = 0.7;
  const auto r = problem.evaluate(x);
  const double norm_sq = r.objectives[0] * r.objectives[0] +
                         r.objectives[1] * r.objectives[1] +
                         r.objectives[2] * r.objectives[2];
  EXPECT_NEAR(norm_sq, 1.0, 1e-12);
}

TEST(BinhKorn, FeasibleAndInfeasibleRegions) {
  const BinhKornProblem problem;
  const auto feasible = problem.evaluate({1.0, 1.0});
  EXPECT_DOUBLE_EQ(feasible.constraint_violation, 0.0);
  // g1: (0-5)^2 + 3^2 = 34 > 25 => violated by 9.
  const auto infeasible = problem.evaluate({0.0, 3.0});
  EXPECT_NEAR(infeasible.constraint_violation, 9.0, 1e-12);
}

TEST(MiniAedbLike, ShapeMatchesAedb) {
  const MiniAedbLikeProblem problem;
  EXPECT_EQ(problem.dimensions(), 5u);
  EXPECT_EQ(problem.objective_count(), 3u);
  EXPECT_EQ(problem.bounds(2), (std::pair{-95.0, -70.0}));
}

TEST(MiniAedbLike, DirectionsMimicTableOne) {
  const MiniAedbLikeProblem problem;
  // Wider forwarding area (border low) => better coverage (objective 1 is
  // negated coverage: lower is better) and higher energy.
  const auto open = problem.evaluate({0.1, 0.5, -95.0, 1.0, 25.0});
  const auto closed = problem.evaluate({0.1, 0.5, -70.0, 1.0, 25.0});
  EXPECT_LT(open.objectives[1], closed.objectives[1]);   // more coverage
  EXPECT_GT(open.objectives[0], closed.objectives[0]);   // more energy
}

TEST(MiniAedbLike, LongDelaysViolateConstraint) {
  const MiniAedbLikeProblem problem;
  const auto slow = problem.evaluate({1.0, 5.0, -95.0, 1.0, 25.0});
  EXPECT_GT(slow.constraint_violation, 0.0);
  const auto fast = problem.evaluate({0.0, 0.5, -70.0, 1.0, 25.0});
  EXPECT_DOUBLE_EQ(fast.constraint_violation, 0.0);
}

TEST(ProblemHelpers, RandomPointInsideBounds) {
  const MiniAedbLikeProblem problem;
  Xoshiro256 rng(5);
  for (int i = 0; i < 100; ++i) {
    const auto x = problem.random_point(rng);
    ASSERT_EQ(x.size(), 5u);
    for (std::size_t d = 0; d < x.size(); ++d) {
      const auto [lo, hi] = problem.bounds(d);
      EXPECT_GE(x[d], lo);
      EXPECT_LT(x[d], hi);
    }
  }
}

TEST(ProblemHelpers, ClampPullsIntoBounds) {
  const MiniAedbLikeProblem problem;
  std::vector<double> x{-10.0, 99.0, 0.0, -1.0, 200.0};
  problem.clamp(x);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 5.0);
  EXPECT_DOUBLE_EQ(x[2], -70.0);
  EXPECT_DOUBLE_EQ(x[3], 0.0);
  EXPECT_DOUBLE_EQ(x[4], 50.0);
}

}  // namespace
}  // namespace aedbmls::moo
