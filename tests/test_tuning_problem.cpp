#include "aedb/tuning_problem.hpp"

#include <gtest/gtest.h>

namespace aedbmls::aedb {
namespace {

AedbTuningProblem::Config fast_config(int density = 100) {
  AedbTuningProblem::Config config;
  config.devices_per_km2 = density;
  config.network_count = 2;  // keep unit tests quick
  config.seed = 99;
  return config;
}

TEST(TuningProblem, ShapeMatchesPaper) {
  const AedbTuningProblem problem(fast_config());
  EXPECT_EQ(problem.dimensions(), 5u);
  EXPECT_EQ(problem.objective_count(), 3u);
  EXPECT_EQ(problem.name(), "AEDB-100dev");

  // Table III domains.
  EXPECT_EQ(problem.bounds(0), (std::pair{0.0, 1.0}));
  EXPECT_EQ(problem.bounds(1), (std::pair{0.0, 5.0}));
  EXPECT_EQ(problem.bounds(2), (std::pair{-95.0, -70.0}));
  EXPECT_EQ(problem.bounds(3), (std::pair{0.0, 3.0}));
  EXPECT_EQ(problem.bounds(4), (std::pair{0.0, 50.0}));
}

TEST(TuningProblem, EvaluationIsDeterministic) {
  const AedbTuningProblem problem(fast_config());
  const std::vector<double> x{0.1, 0.6, -90.0, 1.0, 20.0};
  const auto a = problem.evaluate(x);
  const auto b = problem.evaluate(x);
  ASSERT_EQ(a.objectives.size(), 3u);
  EXPECT_DOUBLE_EQ(a.objectives[0], b.objectives[0]);
  EXPECT_DOUBLE_EQ(a.objectives[1], b.objectives[1]);
  EXPECT_DOUBLE_EQ(a.objectives[2], b.objectives[2]);
  EXPECT_DOUBLE_EQ(a.constraint_violation, b.constraint_violation);
}

TEST(TuningProblem, CoverageIsNegatedForMinimisation) {
  const AedbTuningProblem problem(fast_config());
  const std::vector<double> x{0.0, 0.3, -92.0, 1.0, 25.0};
  const auto result = problem.evaluate(x);
  const auto detail = problem.evaluate_detail(AedbParams::from_vector(x));
  EXPECT_DOUBLE_EQ(result.objectives[1], -detail.mean_coverage);
  EXPECT_GE(detail.mean_coverage, 0.0);
}

TEST(TuningProblem, ConstraintViolationTracksBroadcastTime) {
  const AedbTuningProblem problem(fast_config());
  // Long forced delays (4..5 s) push bt beyond the 2 s limit whenever the
  // message is forwarded at all.
  const std::vector<double> slow{4.0 / 5.0 * 1.0, 5.0, -95.0, 1.0, 50.0};
  const auto result = problem.evaluate(slow);
  const auto detail = problem.evaluate_detail(AedbParams::from_vector(slow));
  if (detail.mean_broadcast_time_s > 2.0) {
    EXPECT_NEAR(result.constraint_violation, detail.mean_broadcast_time_s - 2.0,
                1e-12);
  } else {
    EXPECT_DOUBLE_EQ(result.constraint_violation, 0.0);
  }
}

TEST(TuningProblem, CountsEvaluations) {
  const AedbTuningProblem problem(fast_config());
  EXPECT_EQ(problem.tier_counters(0).evaluations, 0u);
  (void)problem.evaluate({0.1, 0.5, -90.0, 1.0, 10.0});
  (void)problem.evaluate({0.1, 0.5, -90.0, 1.0, 10.0});
  EXPECT_EQ(problem.tier_counters(0).evaluations, 2u);
}

TEST(TuningProblem, DensityChangesNodeCount) {
  const AedbTuningProblem p100(fast_config(100));
  const AedbTuningProblem p300(fast_config(300));
  EXPECT_EQ(p100.config().scenario.network.node_count, 25u);
  EXPECT_EQ(p300.config().scenario.network.node_count, 75u);
}

TEST(TuningProblem, EvaluateIntoFillsSolution) {
  const AedbTuningProblem problem(fast_config());
  moo::Solution s;
  s.x = {0.1, 0.5, -90.0, 1.0, 10.0};
  problem.evaluate_into(s);
  EXPECT_TRUE(s.evaluated);
  EXPECT_EQ(s.objectives.size(), 3u);
}

}  // namespace
}  // namespace aedbmls::aedb
