/// End-to-end pipeline at smoke scale: real simulator-backed tuning problem,
/// all three algorithms, indicator computation against a merged reference —
/// the complete Figure-6/7 pipeline in miniature.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "aedb/tuning_problem.hpp"
#include "core/mls.hpp"
#include "moo/algorithms/nsga2.hpp"
#include "moo/core/front_io.hpp"
#include "moo/core/normalization.hpp"
#include "moo/indicators/hypervolume.hpp"
#include "moo/indicators/igd.hpp"
#include "moo/indicators/spread.hpp"

namespace aedbmls {
namespace {

aedb::AedbTuningProblem::Config smoke_problem_config() {
  aedb::AedbTuningProblem::Config config;
  config.devices_per_km2 = 100;
  config.network_count = 2;
  config.seed = 314;
  return config;
}

TEST(Integration, MlsTunesTheRealSimulatorProblem) {
  const aedb::AedbTuningProblem problem(smoke_problem_config());
  core::MlsConfig config;
  config.populations = 2;
  config.threads_per_population = 2;
  config.evaluations_per_thread = 12;
  config.reset_period = 5;
  config.archive_capacity = 30;
  config.criteria = core::aedb_criteria();
  core::AedbMls mls(config);

  const moo::AlgorithmResult result = mls.run(problem, 1);
  ASSERT_FALSE(result.front.empty());
  for (const moo::Solution& s : result.front) {
    EXPECT_TRUE(s.evaluated);
    EXPECT_EQ(s.x.size(), 5u);
    EXPECT_EQ(s.objectives.size(), 3u);
    // Objective sanity: energy finite, coverage in [-24, 0], forwards >= 0.
    EXPECT_GE(-s.objectives[1], 0.0);
    EXPECT_LE(-s.objectives[1], 24.0);
    EXPECT_GE(s.objectives[2], 0.0);
  }
  EXPECT_GE(problem.tier_counters(0).evaluations, result.evaluations);
}

TEST(Integration, IndicatorPipelineOnRealFronts) {
  const aedb::AedbTuningProblem problem(smoke_problem_config());

  core::MlsConfig mls_config;
  mls_config.populations = 1;
  mls_config.threads_per_population = 2;
  mls_config.evaluations_per_thread = 10;
  mls_config.reset_period = 4;
  mls_config.criteria = core::aedb_criteria();
  core::AedbMls mls(mls_config);
  const moo::AlgorithmResult mls_result = mls.run(problem, 2);

  moo::Nsga2::Config nsga_config;
  nsga_config.population_size = 8;
  nsga_config.max_evaluations = 24;
  moo::Nsga2 nsga2(nsga_config);
  const moo::AlgorithmResult nsga_result = nsga2.run(problem, 2);

  ASSERT_FALSE(mls_result.front.empty());
  ASSERT_FALSE(nsga_result.front.empty());

  // Reference front and normalised indicators, exactly like the benches.
  const auto reference =
      moo::merge_fronts({mls_result.front, nsga_result.front});
  ASSERT_FALSE(reference.empty());
  const moo::ObjectiveBounds bounds = moo::bounds_of(reference);
  const auto mls_norm = moo::normalize_front(mls_result.front, bounds);
  const auto ref_norm = moo::normalize_front(reference, bounds);

  const double hv = moo::hypervolume(mls_norm, moo::unit_reference(3));
  const double igd = moo::paper_igd(mls_norm, ref_norm);
  const double spread = moo::generalized_spread(mls_norm, ref_norm);
  EXPECT_GE(hv, 0.0);
  EXPECT_GE(igd, 0.0);
  EXPECT_GE(spread, 0.0);
  EXPECT_TRUE(std::isfinite(hv + igd + spread));
}

TEST(Integration, FrontCsvHoldsTheExactObjectives) {
  const aedb::AedbTuningProblem problem(smoke_problem_config());
  core::MlsConfig config;
  config.populations = 1;
  config.threads_per_population = 2;
  config.evaluations_per_thread = 6;
  config.reset_period = 3;
  core::AedbMls mls(config);
  const moo::AlgorithmResult result = mls.run(problem, 3);
  ASSERT_FALSE(result.front.empty());

  // Columns x0..x4, f0..f2, cv; every value printed to 17 digits reads
  // back to the same double.
  std::istringstream rows(moo::front_to_csv(result.front));
  std::string row;
  ASSERT_TRUE(std::getline(rows, row));
  EXPECT_EQ(row, "x0,x1,x2,x3,x4,f0,f1,f2,cv");
  for (const moo::Solution& s : result.front) {
    ASSERT_TRUE(std::getline(rows, row));
    std::istringstream cells(row);
    std::vector<double> values;
    for (std::string cell; std::getline(cells, cell, ',');) {
      values.push_back(std::stod(cell));
    }
    ASSERT_EQ(values.size(), 9u);
    EXPECT_EQ(std::vector<double>(values.begin() + 5, values.begin() + 8),
              s.objectives);
  }
  EXPECT_FALSE(std::getline(rows, row));
}

}  // namespace
}  // namespace aedbmls
