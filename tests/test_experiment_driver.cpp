/// ExperimentDriver: deterministic cell seeding, plan fingerprints, the
/// CSV cache, and — the headline property — bitwise-identical indicator
/// samples for any driver worker count (1/4/12), because cells are seeded
/// by (plan, scenario, run) alone and the reference-front reduction runs
/// after the barrier in plan order.

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "expt/experiment.hpp"

namespace aedbmls::expt {
namespace {

Scale tiny_scale() {
  Scale scale;
  scale.networks = 1;
  scale.runs = 2;
  scale.evals = 24;
  scale.seed = 4242;
  scale.scenarios = {"d100", "static-grid"};
  return scale;
}

/// Two cheap contenders; AEDB-MLS gets its own plan at a budget where its
/// workers reset (below).
ExperimentPlan tiny_plan() {
  return ExperimentPlan::of({"NSGAII", "Random"}, tiny_scale());
}

ExperimentDriver::Options quiet(std::size_t workers) {
  ExperimentDriver::Options options;
  options.workers = workers;
  options.use_cache = false;
  options.verbose = false;
  return options;
}

void expect_identical(const std::vector<IndicatorSample>& a,
                      const std::vector<IndicatorSample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].algorithm, b[i].algorithm) << i;
    EXPECT_EQ(a[i].scenario, b[i].scenario) << i;
    EXPECT_EQ(a[i].run_seed, b[i].run_seed) << i;
    EXPECT_EQ(a[i].front_size, b[i].front_size) << i;
    // Bitwise, not approximate: the grid sharding must not change results.
    EXPECT_EQ(a[i].hypervolume, b[i].hypervolume) << i;
    EXPECT_EQ(a[i].igd, b[i].igd) << i;
    EXPECT_EQ(a[i].spread, b[i].spread) << i;
  }
}

TEST(ExperimentPlan, CellsEnumerateTheGridDeterministically) {
  const ExperimentPlan plan = tiny_plan();
  const auto cells = plan.cells();
  ASSERT_EQ(cells.size(), plan.cell_count());
  ASSERT_EQ(cells.size(), 2u * 2u * 2u);
  // Scenario-major order, matching the old serial loop.
  EXPECT_EQ(cells[0].scenario, "d100");
  EXPECT_EQ(cells[0].algorithm, "NSGAII");
  EXPECT_EQ(cells[0].run, 0u);
  EXPECT_EQ(cells.back().scenario, "static-grid");
  EXPECT_EQ(cells.back().algorithm, "Random");
  EXPECT_EQ(cells.back().run, 1u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].seed,
              cell_seed(plan.scale, cells[i].scenario, cells[i].run));
  }
}

TEST(ExperimentPlan, CellSeedsAreSharedAcrossAlgorithmsNotScenarios) {
  const Scale scale = tiny_scale();
  // Same (scenario, run) => same seed: every contender faces the same
  // instance stream, the paper's protocol.
  EXPECT_EQ(cell_seed(scale, "d100", 0), cell_seed(scale, "d100", 0));
  EXPECT_NE(cell_seed(scale, "d100", 0), cell_seed(scale, "d100", 1));
  EXPECT_NE(cell_seed(scale, "d100", 0), cell_seed(scale, "static-grid", 0));
  Scale reseeded = scale;
  reseeded.seed = 1;
  EXPECT_NE(cell_seed(scale, "d100", 0), cell_seed(reseeded, "d100", 0));
}

TEST(ExperimentPlan, FingerprintCoversTheGridShape) {
  const ExperimentPlan plan = tiny_plan();
  ExperimentPlan other = plan;
  EXPECT_EQ(plan.fingerprint(), other.fingerprint());
  other.algorithms.push_back("CellDE");
  EXPECT_NE(plan.fingerprint(), other.fingerprint());
  other = plan;
  other.scenarios = {"d100"};
  EXPECT_NE(plan.fingerprint(), other.fingerprint());
  other = plan;
  other.scale.evals += 1;
  EXPECT_NE(plan.fingerprint(), other.fingerprint());
  other = plan;
  other.scale.seed += 1;
  EXPECT_NE(plan.fingerprint(), other.fingerprint());
}

TEST(ExperimentDriver, ShardedSamplesAreBitwiseIdenticalAt1_4_12Workers) {
  const ExperimentPlan plan = tiny_plan();
  const auto serial = ExperimentDriver(quiet(1)).run(plan);
  ASSERT_EQ(serial.samples.size(), plan.cell_count());
  for (const std::size_t workers : {4u, 12u}) {
    const auto sharded = ExperimentDriver(quiet(workers)).run(plan);
    expect_identical(serial.samples, sharded.samples);
  }
}

TEST(ExperimentDriver, MlsSamplesAreBitwiseIdenticalAt1_4_12Workers) {
  // 240 evaluations over the smoke 2x2 layout: 60 candidates and one reset
  // per worker, so reset samples and archive admission order both shape
  // the fronts while driver workers run other cells alongside.
  Scale scale = tiny_scale();
  scale.evals = 240;
  const ExperimentPlan plan = ExperimentPlan::of({"AEDB-MLS"}, scale);
  const auto serial = ExperimentDriver(quiet(1)).run(plan);
  ASSERT_EQ(serial.samples.size(), plan.cell_count());
  for (const std::size_t workers : {4u, 12u}) {
    const auto sharded = ExperimentDriver(quiet(workers)).run(plan);
    expect_identical(serial.samples, sharded.samples);
    EXPECT_EQ(sharded.telemetry.counters, serial.telemetry.counters)
        << workers << " workers";
  }
}

TEST(ExperimentDriver, TelemetryAggregationIsWorkerCountInvariant) {
  // Counters and histograms are exact arithmetic over deterministic cell
  // results, so any worker count folds to the identical values.  Gauges
  // carry measured wall times (nondeterministic values), but their
  // observation counts and key set are still schedule-independent.
  const ExperimentPlan plan = tiny_plan();
  const auto serial = ExperimentDriver(quiet(1)).run(plan);
  ASSERT_FALSE(serial.telemetry.empty());
  EXPECT_EQ(serial.telemetry.counters.at("cells"), plan.cell_count());
  EXPECT_GT(serial.telemetry.counters.at("evaluations"), 0u);
  EXPECT_GT(serial.telemetry.counters.at("sim.runs"), 0u);
  EXPECT_GT(serial.telemetry.counters.at("sim.events"), 0u);
  EXPECT_EQ(serial.telemetry.histograms.at("front.size").count,
            plan.cell_count());
  for (const std::size_t workers : {4u, 12u}) {
    const auto sharded = ExperimentDriver(quiet(workers)).run(plan);
    EXPECT_EQ(sharded.telemetry.counters, serial.telemetry.counters)
        << workers << " workers";
    EXPECT_EQ(sharded.telemetry.histograms, serial.telemetry.histograms)
        << workers << " workers";
    ASSERT_EQ(sharded.telemetry.gauges.size(), serial.telemetry.gauges.size());
    for (const auto& [name, gauge] : serial.telemetry.gauges) {
      EXPECT_EQ(sharded.telemetry.gauges.at(name).count, gauge.count) << name;
    }
  }
}

TEST(ExperimentDriver, RecordsMatchSerialRunRepeats) {
  const Scale scale = tiny_scale();
  ExperimentPlan plan = ExperimentPlan::of({"Random"}, scale);
  plan.scenarios = {"d100"};
  ExperimentDriver::Options options = quiet(4);
  options.collect_records = true;
  const auto result = ExperimentDriver(options).run(plan);
  ASSERT_EQ(result.records.size(), scale.runs);

  const auto reference = run_repeats("Random", "d100", scale);
  ASSERT_EQ(reference.size(), scale.runs);
  for (std::size_t run = 0; run < scale.runs; ++run) {
    EXPECT_EQ(result.records[run].run_seed, reference[run].run_seed);
    ASSERT_EQ(result.records[run].front.size(), reference[run].front.size());
    for (std::size_t i = 0; i < reference[run].front.size(); ++i) {
      EXPECT_EQ(result.records[run].front[i].objectives,
                reference[run].front[i].objectives);
    }
  }
}

TEST(ExperimentDriver, DuplicateScenariosAreRejected) {
  ExperimentPlan plan = tiny_plan();
  plan.scenarios = {"d100", "d100"};
  EXPECT_THROW((void)ExperimentDriver(quiet(1)).run(plan),
               std::invalid_argument);
}

TEST(ExperimentDriver, CacheRoundTripsByFingerprint) {
  const ExperimentPlan plan = tiny_plan();
  ExperimentDriver::Options options = quiet(2);
  options.use_cache = true;
  options.cache_dir = ::testing::TempDir() + "aedbmls_driver_cache";
  std::filesystem::remove_all(options.cache_dir);  // stale runs must not hit
  const ExperimentDriver driver(options);

  const auto fresh = driver.run(plan);
  EXPECT_FALSE(fresh.from_cache);
  const auto cached = driver.run(plan);
  EXPECT_TRUE(cached.from_cache);
  expect_identical(fresh.samples, cached.samples);
  // A cache hit runs no cells, so it carries no telemetry (the CSV cache
  // stores indicator samples only).
  EXPECT_FALSE(fresh.telemetry.empty());
  EXPECT_TRUE(cached.telemetry.empty());

  // A different grid gets a different cache entry, not a stale hit.
  ExperimentPlan other = plan;
  other.scale.seed += 1;
  const auto recomputed = ExperimentDriver(options).run(other);
  EXPECT_FALSE(recomputed.from_cache);
}

}  // namespace
}  // namespace aedbmls::expt
