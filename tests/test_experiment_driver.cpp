/// ExperimentDriver: deterministic cell seeding, plan fingerprints, the
/// campaign store (a hit returns every record and the telemetry), and —
/// the headline property — bitwise-identical indicator
/// samples for any driver worker count (1/4/12), because cells are seeded
/// by (plan, scenario, run) alone and the reference-front reduction runs
/// after the barrier in plan order.  A campaign also evaluates on at most
/// `workers` threads: cells, batches and MLS walks share one pool.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "expt/algorithm_registry.hpp"
#include "expt/experiment.hpp"
#include "expt/manifest.hpp"
#include "failing_algorithm.hpp"

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

/// The distinct threads that evaluated, recorded by `ThreadRecordingProblem`.
struct ThreadLog {
  std::mutex mutex;
  std::set<std::thread::id> ids;

  void note() {
    const std::lock_guard lock(mutex);
    ids.insert(std::this_thread::get_id());
  }
};

/// Forwards every call to `inner`, noting the thread of each evaluation.
/// It keeps the default `evaluate_batch`, so batches reach `evaluate_at`
/// one solution at a time on the thread that evaluates them.
class ThreadRecordingProblem final : public moo::Problem {
 public:
  ThreadRecordingProblem(const moo::Problem& inner, ThreadLog& log)
      : inner_(inner), log_(log) {}

  [[nodiscard]] std::size_t dimensions() const override {
    return inner_.dimensions();
  }
  [[nodiscard]] std::size_t objective_count() const override {
    return inner_.objective_count();
  }
  [[nodiscard]] std::pair<double, double> bounds(
      std::size_t dim) const override {
    return inner_.bounds(dim);
  }
  [[nodiscard]] std::size_t fidelity_levels() const override {
    return inner_.fidelity_levels();
  }
  [[nodiscard]] std::size_t screening_tier() const override {
    return inner_.screening_tier();
  }
  [[nodiscard]] Result evaluate(const std::vector<double>& x) const override {
    log_.note();
    return inner_.evaluate(x);
  }
  [[nodiscard]] Result evaluate_at(const std::vector<double>& x,
                                   std::size_t tier) const override {
    log_.note();
    return inner_.evaluate_at(x, tier);
  }

 private:
  const moo::Problem& inner_;
  ThreadLog& log_;
};

/// Runs `inner` on a `ThreadRecordingProblem` around the cell's problem.
class ThreadRecordingAlgorithm final : public moo::Algorithm {
 public:
  ThreadRecordingAlgorithm(std::unique_ptr<moo::Algorithm> inner,
                           ThreadLog& log)
      : inner_(std::move(inner)), log_(log) {}

  [[nodiscard]] moo::AlgorithmResult run(const moo::Problem& problem,
                                         std::uint64_t seed) override {
    const ThreadRecordingProblem recorded(problem, log_);
    return inner_->run(recorded, seed);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<moo::Algorithm> inner_;
  ThreadLog& log_;
};

/// Shadows registry entries with thread-recording wrappers for one scope.
class RecordThreadsOf {
 public:
  RecordThreadsOf(const std::vector<std::string>& names, ThreadLog& log) {
    AlgorithmRegistry& registry = AlgorithmRegistry::instance();
    for (const std::string& name : names) {
      const AlgorithmRegistry::Entry* original = registry.find(name);
      if (original == nullptr) throw std::logic_error("unregistered " + name);
      originals_.push_back(*original);
    }
    for (const AlgorithmRegistry::Entry& original : originals_) {
      registry.add({original.name, original.description,
                    [factory = original.factory, &log](
                        const Scale& scale,
                        const moo::EvaluationEngine* evaluator) {
                      return std::make_unique<ThreadRecordingAlgorithm>(
                          factory(scale, evaluator), log);
                    }});
    }
  }
  ~RecordThreadsOf() {
    for (AlgorithmRegistry::Entry& original : originals_) {
      AlgorithmRegistry::instance().add(std::move(original));
    }
  }
  RecordThreadsOf(const RecordThreadsOf&) = delete;
  RecordThreadsOf& operator=(const RecordThreadsOf&) = delete;

 private:
  std::vector<AlgorithmRegistry::Entry> originals_;
};

TEST(ExperimentDriver, CampaignEvaluatesOnAtMostWorkersThreads) {
  // Cells, NSGA-II's population batches and the MLS walks share the
  // driver's pool, so a 2-worker campaign evaluates on at most 2 threads.
  Scale scale = tiny_scale();
  scale.runs = 3;
  scale.evals = 48;
  const ExperimentPlan plan = ExperimentPlan::of({"AEDB-MLS", "NSGAII"}, scale);
  ThreadLog log;
  {
    const RecordThreadsOf recording({"AEDB-MLS", "NSGAII"}, log);
    const auto result = ExperimentDriver(quiet(2)).run(plan);
    ASSERT_EQ(result.samples.size(), plan.cell_count());
  }
  EXPECT_GE(log.ids.size(), 1u);
  EXPECT_LE(log.ids.size(), 2u);
}

TEST(ExperimentDriver, FailedCampaignKeepsItsFinishedCellsInTheStore) {
  // The driver appends each cell to the store as it completes: a campaign
  // that dies at its third cell leaves the two finished ones, and the
  // clean rerun runs exactly the missing cells and lands on the unbroken
  // run's CSV bytes.
  const ExperimentPlan plan = ExperimentPlan::of({"Random"}, tiny_scale());
  ASSERT_EQ(plan.cell_count(), 4u);
  const std::string reference_dir = ::testing::TempDir() + "aedbmls_journal_ref";
  const std::string dir = ::testing::TempDir() + "aedbmls_journal_driver";
  std::filesystem::remove_all(reference_dir);
  std::filesystem::remove_all(dir);
  ExperimentDriver::Options options = quiet(1);
  options.use_cache = true;
  options.cache_dir = reference_dir;
  (void)ExperimentDriver(options).run(plan);
  options.cache_dir = dir;

  {
    const ScopedFailingAlgorithm failing("Random", 3);
    EXPECT_THROW((void)ExperimentDriver(options).run(plan), std::runtime_error);
  }

  const CellLog log = read_cell_log(slurp(cell_store_path(dir, plan)), plan);
  EXPECT_EQ(log.defect, "");
  ASSERT_EQ(log.results.size(), 2u);
  EXPECT_EQ(log.results[0].index, 0u);
  EXPECT_EQ(log.results[1].index, 1u);

  options.verbose = true;
  ::testing::internal::CaptureStdout();
  const auto rerun = ExperimentDriver(options).run(plan);
  const std::string printed = ::testing::internal::GetCapturedStdout();
  std::size_t ran = 0;
  for (std::size_t at = printed.find("[cell "); at != std::string::npos;
       at = printed.find("[cell ", at + 1)) {
    ++ran;
  }
  EXPECT_EQ(ran, 2u) << printed;
  EXPECT_FALSE(rerun.from_cache);
  EXPECT_EQ(slurp(indicator_csv_path(dir, plan)),
            slurp(indicator_csv_path(reference_dir, plan)));
  const CellLog whole = read_cell_log(slurp(cell_store_path(dir, plan)), plan);
  EXPECT_EQ(whole.defect, "");
  EXPECT_EQ(whole.results.size(), plan.cell_count());
}

TEST(ExperimentDriver, RecordsMatchSerialRunRepeats) {
  const Scale scale = tiny_scale();
  ExperimentPlan plan = ExperimentPlan::of({"Random"}, scale);
  plan.scenarios = {"d100"};
  const auto result = ExperimentDriver(quiet(4)).run(plan);
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
  // The hit runs no cell (no `[cell` progress line), yet returns what the
  // fresh run did: the store keeps every cell's front and telemetry.
  ExperimentDriver::Options verbose = options;
  verbose.verbose = true;
  ::testing::internal::CaptureStdout();
  const auto cached = ExperimentDriver(verbose).run(plan);
  const std::string printed = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(printed.find("[cell"), std::string::npos) << printed;
  EXPECT_TRUE(cached.from_cache);
  expect_identical(fresh.samples, cached.samples);
  ASSERT_EQ(fresh.records.size(), plan.cell_count());
  ASSERT_EQ(cached.records.size(), plan.cell_count());
  for (std::size_t i = 0; i < plan.cell_count(); ++i) {
    EXPECT_EQ(encode_cell_result({i, cached.records[i]}),
              encode_cell_result({i, fresh.records[i]}))
        << i;
  }
  EXPECT_FALSE(fresh.telemetry.empty());
  EXPECT_EQ(cached.telemetry, fresh.telemetry);

  // A different grid gets a different cache entry, not a stale hit.
  ExperimentPlan other = plan;
  other.scale.seed += 1;
  const auto recomputed = ExperimentDriver(options).run(other);
  EXPECT_FALSE(recomputed.from_cache);
}

}  // namespace
}  // namespace aedbmls::expt
