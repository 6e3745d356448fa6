/// Elastic campaign service over an in-process transport world: the
/// pull scheduler reproduces the single-driver indicator samples and CSV
/// bitwise, requeues a dead worker's cells, fails loudly when the whole
/// fleet departs, rejects fingerprint-mismatched workers, resumes from
/// its crash journal, and warms worker caches.  The cell-block codec the
/// wire rides on round-trips bitwise.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "expt/campaign_service.hpp"
#include "expt/experiment.hpp"
#include "expt/manifest.hpp"
#include "par/net/transport.hpp"

namespace aedbmls::expt {
namespace {

using namespace std::chrono_literals;

Scale tiny_scale() {
  Scale scale;
  scale.networks = 1;
  scale.runs = 2;
  scale.evals = 24;
  scale.seed = 4242;
  scale.scenarios = {"d100", "static-grid"};
  return scale;
}

/// Two cheap contenders.
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

std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "aedbmls_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void expect_identical(const std::vector<IndicatorSample>& a,
                      const std::vector<IndicatorSample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].algorithm, b[i].algorithm) << i;
    EXPECT_EQ(a[i].scenario, b[i].scenario) << i;
    EXPECT_EQ(a[i].run_seed, b[i].run_seed) << i;
    EXPECT_EQ(a[i].front_size, b[i].front_size) << i;
    // Bitwise, not approximate: distribution must not change results.
    EXPECT_EQ(a[i].hypervolume, b[i].hypervolume) << i;
    EXPECT_EQ(a[i].igd, b[i].igd) << i;
    EXPECT_EQ(a[i].spread, b[i].spread) << i;
  }
}

/// One worker's outcome: its report, or the error it died with.
struct WorkerRun {
  WorkerReport report;
  std::string error;
};

WorkerRun drive_worker(const ExperimentPlan& plan,
                       par::net::Transport& transport,
                       CampaignWorkerOptions options) {
  WorkerRun run;
  try {
    run.report = run_campaign_worker(plan, transport, options);
  } catch (const std::exception& error) {
    run.error = error.what();
  }
  return run;
}

/// The unsharded ground truth: a plain driver run caching into `dir`.
ExperimentResult reference_run(const ExperimentPlan& plan,
                               const std::string& dir) {
  ExperimentDriver::Options options = quiet(2);
  options.use_cache = true;
  options.cache_dir = dir;
  return ExperimentDriver(options).run(plan);
}

TEST(CampaignService, ElasticRunMatchesDriverBitwise) {
  const auto plan = tiny_plan();
  const std::string ref_dir = scratch_dir("elastic_ref");
  const std::string elastic_dir = scratch_dir("elastic_run");
  const auto reference = reference_run(plan, ref_dir);

  par::net::InProcWorld world(4);
  std::vector<WorkerRun> runs(3);
  std::vector<std::thread> threads;
  for (std::size_t r = 1; r <= 3; ++r) {
    threads.emplace_back([&world, &runs, &plan, r] {
      CampaignWorkerOptions options;
      options.driver = quiet(1);
      runs[r - 1] = drive_worker(plan, world.endpoint(r), options);
    });
  }
  CampaignCoordinatorOptions coordinator;
  coordinator.driver = quiet(1);
  coordinator.driver.use_cache = true;
  coordinator.driver.cache_dir = elastic_dir;
  const auto result =
      run_campaign_coordinator(plan, world.endpoint(0), coordinator);
  for (auto& thread : threads) thread.join();

  EXPECT_FALSE(result.from_cache);
  expect_identical(result.samples, reference.samples);
  const std::string ref_csv = slurp(indicator_csv_path(ref_dir, plan));
  ASSERT_FALSE(ref_csv.empty());
  EXPECT_EQ(slurp(indicator_csv_path(elastic_dir, plan)), ref_csv);
  std::size_t total_cells = 0;
  for (const WorkerRun& run : runs) {
    EXPECT_TRUE(run.error.empty()) << run.error;
    total_cells += run.report.cells_completed;
  }
  EXPECT_EQ(total_cells, plan.cell_count());
  // The journal must not outlive a successful campaign.
  EXPECT_FALSE(
      std::filesystem::exists(campaign_journal_path(elastic_dir, plan)));
}

TEST(CampaignService, DeadWorkerCellsAreRequeuedByteIdentical) {
  const auto plan = tiny_plan();
  const std::string ref_dir = scratch_dir("requeue_ref");
  const std::string elastic_dir = scratch_dir("requeue_run");
  const auto reference = reference_run(plan, ref_dir);

  par::net::InProcWorld world(3);
  std::vector<WorkerRun> runs(2);
  std::thread dying([&] {
    CampaignWorkerOptions options;
    options.driver = quiet(1);
    options.max_cells = 1;  // complete one cell, then abandon the next
    runs[0] = drive_worker(plan, world.endpoint(1), options);
  });
  std::thread survivor([&] {
    CampaignWorkerOptions options;
    options.driver = quiet(1);
    runs[1] = drive_worker(plan, world.endpoint(2), options);
  });
  CampaignCoordinatorOptions coordinator;
  coordinator.driver = quiet(1);
  coordinator.driver.use_cache = true;
  coordinator.driver.cache_dir = elastic_dir;
  coordinator.journal = false;
  const auto result =
      run_campaign_coordinator(plan, world.endpoint(0), coordinator);
  dying.join();
  survivor.join();

  expect_identical(result.samples, reference.samples);
  EXPECT_EQ(slurp(indicator_csv_path(elastic_dir, plan)),
            slurp(indicator_csv_path(ref_dir, plan)));
  EXPECT_EQ(runs[0].report.cells_completed, 1u);
  // The survivor absorbed the rest, including the requeued abandonment.
  EXPECT_EQ(runs[1].report.cells_completed, plan.cell_count() - 1);
}

TEST(CampaignService, AllWorkersDepartedFailsLoudly) {
  const auto plan = tiny_plan();
  par::net::InProcWorld world(2);
  WorkerRun run;
  std::thread worker([&] {
    CampaignWorkerOptions options;
    options.driver = quiet(1);
    options.max_cells = 2;
    run = drive_worker(plan, world.endpoint(1), options);
  });
  CampaignCoordinatorOptions coordinator;
  coordinator.driver = quiet(1);
  try {
    (void)run_campaign_coordinator(plan, world.endpoint(0), coordinator);
    FAIL() << "a fully departed fleet must fail the campaign";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("workers departed"), std::string::npos) << what;
    EXPECT_NE(what.find("cells incomplete"), std::string::npos) << what;
  }
  worker.join();
  EXPECT_EQ(run.report.cells_completed, 2u);
}

TEST(CampaignService, FingerprintMismatchIsRejected) {
  const auto plan = tiny_plan();
  const std::string ref_dir = scratch_dir("reject_ref");
  const auto reference = reference_run(plan, ref_dir);

  Scale other_scale = tiny_scale();
  other_scale.seed = 777;  // different fingerprint, same grid shape
  const auto other_plan = ExperimentPlan::of({"NSGAII", "Random"}, other_scale);
  ASSERT_NE(plan.fingerprint(), other_plan.fingerprint());

  par::net::InProcWorld world(3);
  std::vector<WorkerRun> runs(2);
  std::thread mismatched([&] {
    CampaignWorkerOptions options;
    options.driver = quiet(1);
    runs[0] = drive_worker(other_plan, world.endpoint(1), options);
  });
  std::thread matching([&] {
    CampaignWorkerOptions options;
    options.driver = quiet(1);
    runs[1] = drive_worker(plan, world.endpoint(2), options);
  });
  CampaignCoordinatorOptions coordinator;
  coordinator.driver = quiet(1);
  const auto result =
      run_campaign_coordinator(plan, world.endpoint(0), coordinator);
  mismatched.join();
  matching.join();

  EXPECT_NE(runs[0].error.find("fingerprint mismatch"), std::string::npos)
      << runs[0].error;
  EXPECT_TRUE(runs[1].error.empty()) << runs[1].error;
  EXPECT_EQ(runs[1].report.cells_completed, plan.cell_count());
  expect_identical(result.samples, reference.samples);
}

TEST(CampaignService, JournalResumesACrashedCampaign) {
  const auto plan = tiny_plan();
  const std::string ref_dir = scratch_dir("journal_ref");
  const std::string dir = scratch_dir("journal_run");
  const auto reference = reference_run(plan, ref_dir);
  const std::string journal = campaign_journal_path(dir, plan);

  // Round 1: the only worker abandons after 3 cells, failing the
  // campaign — but the journal keeps what was finished.
  {
    par::net::InProcWorld world(2);
    WorkerRun run;
    std::thread worker([&] {
      CampaignWorkerOptions options;
      options.driver = quiet(1);
      options.max_cells = 3;
      run = drive_worker(plan, world.endpoint(1), options);
    });
    CampaignCoordinatorOptions coordinator;
    coordinator.driver = quiet(1);
    coordinator.driver.use_cache = true;
    coordinator.driver.cache_dir = dir;
    EXPECT_THROW(
        (void)run_campaign_coordinator(plan, world.endpoint(0), coordinator),
        std::runtime_error);
    worker.join();
    EXPECT_EQ(run.report.cells_completed, 3u);
  }
  ASSERT_TRUE(std::filesystem::exists(journal));

  // Round 2: a fresh coordinator replays the journal and schedules only
  // the remaining cells.
  {
    par::net::InProcWorld world(2);
    WorkerRun run;
    std::thread worker([&] {
      CampaignWorkerOptions options;
      options.driver = quiet(1);
      run = drive_worker(plan, world.endpoint(1), options);
    });
    CampaignCoordinatorOptions coordinator;
    coordinator.driver = quiet(1);
    coordinator.driver.use_cache = true;
    coordinator.driver.cache_dir = dir;
    const auto result =
        run_campaign_coordinator(plan, world.endpoint(0), coordinator);
    worker.join();

    EXPECT_EQ(run.report.cells_completed, plan.cell_count() - 3);
    expect_identical(result.samples, reference.samples);
    EXPECT_EQ(slurp(indicator_csv_path(dir, plan)),
              slurp(indicator_csv_path(ref_dir, plan)));
  }
  EXPECT_FALSE(std::filesystem::exists(journal));
}

TEST(CampaignService, WarmUpShipsTheCachedCsvToWorkers) {
  const auto plan = tiny_plan();
  const std::string coord_dir = scratch_dir("warm_coord");
  const std::string worker_dir = scratch_dir("warm_worker");
  (void)reference_run(plan, coord_dir);  // populates the coordinator cache

  par::net::InProcWorld world(2);
  WorkerRun run;
  std::thread worker([&] {
    CampaignWorkerOptions options;
    options.driver = quiet(1);
    options.driver.use_cache = true;
    options.driver.cache_dir = worker_dir;
    run = drive_worker(plan, world.endpoint(1), options);
  });
  CampaignCoordinatorOptions coordinator;
  coordinator.driver = quiet(1);
  coordinator.driver.use_cache = true;
  coordinator.driver.cache_dir = coord_dir;
  const auto result =
      run_campaign_coordinator(plan, world.endpoint(0), coordinator);
  worker.join();

  // Cache hit: nothing scheduled, and the worker's cache is now warm with
  // the identical bytes.
  EXPECT_TRUE(result.from_cache);
  EXPECT_TRUE(run.error.empty()) << run.error;
  EXPECT_EQ(run.report.cells_completed, 0u);
  const std::string coordinator_csv = slurp(indicator_csv_path(coord_dir, plan));
  ASSERT_FALSE(coordinator_csv.empty());
  EXPECT_EQ(slurp(indicator_csv_path(worker_dir, plan)), coordinator_csv);
}

TEST(CampaignService, CostPriorsComeFromScenarioWallGauges) {
  telemetry::Snapshot snapshot;
  snapshot.gauges["scenario.d100.wall_s"].observe(2.0);
  snapshot.gauges["scenario.d100.wall_s"].observe(4.0);
  snapshot.gauges["scenario.urban-canyon.wall_s"].observe(9.5);
  snapshot.gauges["cell.wall_s"].observe(1.0);        // not a scenario gauge
  snapshot.gauges["scenario.empty.wall_s"];           // zero observations
  const auto priors = cost_priors_from_snapshot(snapshot);
  ASSERT_EQ(priors.size(), 2u);
  EXPECT_DOUBLE_EQ(priors.at("d100"), 3.0);
  EXPECT_DOUBLE_EQ(priors.at("urban-canyon"), 9.5);
}

TEST(CampaignService, CellResultCodecRoundTripsBitwise) {
  CellResult original;
  original.index = 5;
  original.record.algorithm = "NSGAII";
  original.record.scenario = "d100";
  original.record.run_seed = 0xDEADBEEFu;
  original.record.evaluations = 24;
  original.record.wall_seconds = 0.12345678901234567;
  original.record.telemetry.counters["evaluations"] = 24;
  original.record.telemetry.gauges["cell.wall_s"].observe(0.125);
  moo::Solution solution;
  solution.objectives = {0.25, -1.0 / 3.0, 7.0};
  solution.x = {0.1, 0.2, 0.3, 0.4, 0.5};
  solution.constraint_violation = 0.0;
  solution.evaluated = true;
  original.record.front = {solution, solution};

  const std::string block = encode_cell_result(original);
  const CellResult decoded = decode_cell_result(block, /*total_cells=*/8);
  EXPECT_EQ(decoded.index, original.index);
  EXPECT_EQ(decoded.record.algorithm, original.record.algorithm);
  EXPECT_EQ(decoded.record.scenario, original.record.scenario);
  EXPECT_EQ(decoded.record.run_seed, original.record.run_seed);
  EXPECT_EQ(decoded.record.evaluations, original.record.evaluations);
  EXPECT_EQ(decoded.record.wall_seconds, original.record.wall_seconds);
  EXPECT_EQ(decoded.record.telemetry, original.record.telemetry);
  ASSERT_EQ(decoded.record.front.size(), 2u);
  for (const moo::Solution& point : decoded.record.front) {
    EXPECT_EQ(point.objectives, solution.objectives);
    EXPECT_EQ(point.x, solution.x);
    EXPECT_EQ(point.constraint_violation, solution.constraint_violation);
  }

  // Malformed blocks are rejected, never mis-decoded.
  EXPECT_THROW((void)decode_cell_result(block, /*total_cells=*/5),
               std::invalid_argument);  // index out of range
  EXPECT_THROW((void)decode_cell_result(block.substr(0, block.size() / 2), 8),
               std::invalid_argument);  // truncated mid-block
  EXPECT_THROW((void)decode_cell_result(block + "trailing\n", 8),
               std::invalid_argument);  // trailing garbage
}

}  // namespace
}  // namespace aedbmls::expt
