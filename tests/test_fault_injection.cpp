/// The fault-injection subsystem and the durable I/O it attacks: plan
/// grammar + trigger semantics + seeded determinism, CRC32 trailers and
/// atomic file replacement, the `cell.stall_ms` site in the driver's cell
/// loop, manifest corruption handling, a torn store append, and the
/// campaign store under adversarial inputs (torn tail, bit flips, repeated
/// and contradicting cells, wrong fingerprint, empty file) replayed by
/// both the driver and a shard.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/durable_file.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "expt/experiment.hpp"
#include "expt/manifest.hpp"
#include "failing_algorithm.hpp"
#include "seeded_mutants.hpp"

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

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << bytes;
}

/// A whole-plan cell log of decodable results matching the plan's cells —
/// enough for manifest hardening tests without running a simulation.
std::string fabricated_log(const ExperimentPlan& plan) {
  std::string bytes = cell_log_header(plan);
  for (const auto& cell : plan.cells()) {
    CellResult result;
    result.index = cell.index;
    result.record.algorithm = cell.algorithm;
    result.record.scenario = cell.scenario;
    result.record.run_seed = cell.seed;
    result.record.evaluations = 7;
    result.record.wall_seconds = 0.25;
    bytes += cell_log_record(result);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Plan grammar + triggers

TEST(FaultPlan, InactiveByDefaultAndAfterClear) {
  fault::clear();
  EXPECT_FALSE(fault::active());
  EXPECT_FALSE(fault::fire("io.cache.write_fail"));
  EXPECT_EQ(fault::describe(), "");

  fault::configure("io.cache.write_fail=always");
  EXPECT_TRUE(fault::active());
  fault::clear();
  EXPECT_FALSE(fault::active());
  EXPECT_FALSE(fault::fire("io.cache.write_fail"));
}

TEST(FaultPlan, DescribeRoundTripsTheSpec) {
  const std::string spec =
      "seed=42;cell.stall_ms=always,value=1500;io.journal.torn_tail=nth:6";
  fault::configure(spec);
  const std::string canonical = fault::describe();
  fault::configure(canonical);
  EXPECT_EQ(fault::describe(), canonical);
  EXPECT_NE(canonical.find("seed=42"), std::string::npos);
  EXPECT_NE(canonical.find("io.journal.torn_tail=nth:6"), std::string::npos);
  EXPECT_NE(canonical.find("cell.stall_ms=always,value=1500"),
            std::string::npos);
  fault::clear();
}

TEST(FaultPlan, RejectsMalformedSpecsWithoutInstallingThem) {
  fault::configure("io.journal.torn_tail=nth:2");
  const char* bad[] = {
      "io.journal.torn_tial=always",         // unknown site: a typo fails
      "io.journal.torn_tail",                // no trigger
      "io.journal.torn_tail=nth:0",          // nth is 1-based
      "io.journal.torn_tail=every:0",        // zero period
      "io.journal.torn_tail=prob:1.5",       // probability out of range
      "io.journal.torn_tail=maybe",          // unknown trigger
      "io.journal.torn_tail=nth:2,delay=5",  // unknown option
      "io.journal.torn_tail=always,value=x",
      "seed=notanumber",
      "io.journal.torn_tail=always;io.journal.torn_tail=off",  // duplicate site
      // Signed counts must not wrap to 2^64 - n: nth:-1 would install a
      // site that silently never fires.
      "io.journal.torn_tail=nth:-1",
      "io.journal.torn_tail=every:-2",
      "io.journal.torn_tail=after:-1",
      "seed=-7",
      "io.journal.torn_tail=nth:+3",
  };
  for (const char* spec : bad) {
    EXPECT_THROW(fault::configure(spec), std::invalid_argument) << spec;
  }
  // A rejected spec never replaces the active plan.
  EXPECT_EQ(fault::describe(), "io.journal.torn_tail=nth:2");
  fault::clear();
}

TEST(FaultPlan, SeededMutantsAreRejectedOrDescribeStably) {
  // Seeded mutation harness (the cell log's pattern): a full plan cut at
  // every byte, seeded byte flips, seeded splices of another plan.  A
  // mutant either throws std::invalid_argument and leaves the previous
  // plan installed, or installs a plan whose describe() configures back
  // to the same describe().  Between them the spec and the donor use every
  // trigger; the spec's largest seed makes each cut inside it a valid plan
  // and most digit flips an overflow.
  const std::string spec =
      "seed=18446744073709551615;io.cache.write_fail=nth:6;"
      "io.journal.torn_tail=after:2;cell.stall_ms=always,value=1500";
  const std::string donor =
      "seed=7; io.journal.torn_tail = every:12 ;"
      "io.cache.write_fail=prob:0.25;cell.stall_ms=prob:1,value=-2.5e-3;"
      "io.cache.write_fail=off";
  Xoshiro256 rng(20261017);

  std::size_t checked = 0;
  std::size_t installed = 0;
  auto check = [&](const std::string& mutant) {
    ++checked;
    const std::string before = fault::describe();
    try {
      fault::configure(mutant);
    } catch (const std::invalid_argument&) {
      ASSERT_EQ(fault::describe(), before) << mutant;
      return;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "configure threw " << error.what() << " for '"
                    << mutant << "'";
      return;
    }
    ++installed;
    const std::string described = fault::describe();
    ASSERT_NO_THROW(fault::configure(described)) << mutant;
    ASSERT_EQ(fault::describe(), described) << mutant;
  };

  fault::configure(spec);
  for (std::size_t cut = 0; cut <= spec.size() && !HasFatalFailure(); ++cut) {
    check(spec.substr(0, cut));
  }
  for (int trial = 0; trial < 2000 && !HasFatalFailure(); ++trial) {
    check(mutants::flip(spec, rng));
    check(mutants::splice(spec, donor, rng));
  }
  fault::clear();
  EXPECT_GT(checked, 4000u);
  EXPECT_GT(installed, 20u);
}

TEST(FaultPlan, TriggerSemantics) {
  {
    fault::ScopedPlan plan(
        "io.cache.write_fail=nth:3;io.journal.torn_tail=after:2;"
        "cell.stall_ms=every:3");
    for (int i = 1; i <= 9; ++i) {
      EXPECT_EQ(fault::fire("io.cache.write_fail"), i == 3) << i;
      EXPECT_EQ(fault::fire("io.journal.torn_tail"), i > 2) << i;
      EXPECT_EQ(fault::fire("cell.stall_ms"), i % 3 == 0) << i;
    }
    EXPECT_EQ(fault::hits("io.cache.write_fail"), 9u);
  }
  fault::ScopedPlan plan("io.cache.write_fail=always;io.journal.torn_tail=off");
  for (int i = 1; i <= 9; ++i) {
    EXPECT_TRUE(fault::fire("io.cache.write_fail")) << i;
    EXPECT_FALSE(fault::fire("io.journal.torn_tail")) << i;
    EXPECT_FALSE(fault::fire("cell.stall_ms")) << i;  // unconfigured
  }
  EXPECT_EQ(fault::hits("io.cache.write_fail"), 9u);
  EXPECT_EQ(fault::hits("cell.stall_ms"), 0u);
}

TEST(FaultPlan, SeededProbabilityReplaysDeterministically) {
  const auto draw = [](const std::string& spec) {
    fault::configure(spec);
    std::vector<bool> fired;
    fired.reserve(256);
    for (int i = 0; i < 256; ++i) {
      fired.push_back(fault::fire("io.cache.write_fail"));
    }
    return fired;
  };
  const auto a = draw("seed=1;io.cache.write_fail=prob:0.5");
  const auto b = draw("seed=1;io.cache.write_fail=prob:0.5");
  const auto c = draw("seed=2;io.cache.write_fail=prob:0.5");
  EXPECT_EQ(a, b);  // same plan string => same injection sequence
  EXPECT_NE(a, c);  // the seed is load-bearing
  const std::size_t fired = std::count(a.begin(), a.end(), true);
  EXPECT_GT(fired, 64u);  // crude sanity: roughly half fire
  EXPECT_LT(fired, 192u);

  fault::configure("io.cache.write_fail=prob:1");
  EXPECT_TRUE(fault::fire("io.cache.write_fail"));
  fault::configure("io.cache.write_fail=prob:0");
  EXPECT_FALSE(fault::fire("io.cache.write_fail"));
  fault::clear();
}

TEST(FaultPlan, ValueParameterRidesTheTrigger) {
  fault::ScopedPlan plan("cell.stall_ms=nth:2,value=250");
  double value = -1.0;
  EXPECT_FALSE(fault::fire("cell.stall_ms", value));
  EXPECT_EQ(value, -1.0);  // untouched until the site fires
  EXPECT_TRUE(fault::fire("cell.stall_ms", value));
  EXPECT_EQ(value, 250.0);
}

TEST(FaultPlan, EveryKIsExactUnderConcurrency) {
  fault::ScopedPlan plan("io.journal.torn_tail=every:4");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::atomic<int> fired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fired] {
      for (int i = 0; i < kPerThread; ++i) {
        if (fault::fire("io.journal.torn_tail")) fired.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Occurrence numbers are atomic, so exactly every 4th of the 4000 total
  // occurrences fired no matter how the threads interleaved.
  EXPECT_EQ(fired.load(), kThreads * kPerThread / 4);
  EXPECT_EQ(fault::hits("io.journal.torn_tail"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(FaultPlan, ScopedPlanRestoresThePreviousPlan) {
  fault::configure("io.journal.torn_tail=nth:1");
  {
    fault::ScopedPlan inner("io.cache.write_fail=always");
    EXPECT_EQ(fault::describe(), "io.cache.write_fail=always");
  }
  EXPECT_EQ(fault::describe(), "io.journal.torn_tail=nth:1");
  // Counters reset on restore.
  EXPECT_TRUE(fault::fire("io.journal.torn_tail"));
  fault::clear();
}

// ---------------------------------------------------------------------------
// Durable file primitives

TEST(DurableFile, Crc32KnownAnswer) {
  EXPECT_EQ(io::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(io::crc32_hex("123456789"), "cbf43926");
  EXPECT_EQ(io::crc32(""), 0u);
}

TEST(DurableFile, TrailerSealsThePayload) {
  // One final line, `#crc32 ` + the payload's CRC in 8 lowercase hex
  // digits, that any reader of an indicator CSV or telemetry dump can
  // check by hand.
  const std::string payload = "header\nrow,1,2\nrow,3,4\n";
  EXPECT_EQ(io::with_crc_trailer(payload),
            payload + "#crc32 " + io::crc32_hex(payload) + "\n");
  EXPECT_EQ(io::with_crc_trailer(""), "#crc32 00000000\n");
}

TEST(DurableFile, AtomicWriteReplacesWithoutTempResidue) {
  const std::string dir = scratch_dir("atomic_write");
  const std::string path = dir + "/artifact.csv";
  ASSERT_TRUE(io::atomic_write_file(path, "first\n"));
  EXPECT_EQ(slurp(path), "first\n");
  ASSERT_TRUE(io::atomic_write_file(path, "second\n"));
  EXPECT_EQ(slurp(path), "second\n");
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);  // no .tmp.* left behind
  EXPECT_FALSE(io::atomic_write_file(dir + "/no/such/dir/x", "y"));
}

// ---------------------------------------------------------------------------
// Campaign-store hardening

TEST(CacheHardening, WriteFailSiteSkipsTheStore) {
  // The site skips the store write only: the campaign still writes its
  // CSV, and the next run finds no store and recomputes every cell.
  auto scale = tiny_scale();
  scale.runs = 1;
  scale.evals = 6;
  scale.scenarios = {"static-grid"};
  const auto plan = ExperimentPlan::of({"Random"}, scale);
  ExperimentDriver::Options options;
  options.workers = 1;
  options.verbose = false;
  options.cache_dir = scratch_dir("cache_write_fail") + "/results";
  {
    fault::ScopedPlan fail_writes("io.cache.write_fail=always");
    EXPECT_FALSE(ExperimentDriver(options).run(plan).from_cache);
  }
  EXPECT_FALSE(std::filesystem::exists(cell_store_path(options.cache_dir, plan)));
  EXPECT_TRUE(
      std::filesystem::exists(indicator_csv_path(options.cache_dir, plan)));
  EXPECT_FALSE(ExperimentDriver(options).run(plan).from_cache);
  EXPECT_TRUE(std::filesystem::exists(cell_store_path(options.cache_dir, plan)));
}

// ---------------------------------------------------------------------------
// Shard-manifest hardening

TEST(ManifestHardening, CorruptManifestIsRejectedByName) {
  const auto plan = tiny_plan();
  const std::string dir = scratch_dir("manifest_hardening");
  const std::string path = shard_log_path(dir, plan, 0, 1);
  io::atomic_write_file_or_throw(path, fabricated_log(plan));
  EXPECT_EQ(read_cell_log(slurp(path), plan).defect, "");

  std::string corrupt = slurp(path);
  corrupt[corrupt.find("cell ") + 5] ^= 0x01;
  spit(path, corrupt);
  try {
    (void)merge_campaign(plan, dir, scratch_dir("manifest_hardening_out"));
    FAIL() << "corrupt manifest must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("crc"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos);
  }
}

TEST(ManifestHardening, RetiredManifestFormatIsRejectedByName) {
  // A shard file of the retired v2 manifest format reads as a foreign
  // header: regenerate the shard.
  const auto plan = tiny_plan();
  const std::string dir = scratch_dir("manifest_retired");
  const std::string path = shard_log_path(dir, plan, 0, 1);
  spit(path, "aedbmls-shard-manifest v2\nfingerprint 0\nend\n");
  try {
    (void)merge_campaign(plan, dir, scratch_dir("manifest_retired_out"));
    FAIL() << "a v2 manifest must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("aedbmls-shard-manifest v2"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// The campaign store under adversarial inputs

/// How many cells a verbose driver run printed as computed.
std::size_t cells_run(const std::string& printed) {
  std::size_t ran = 0;
  for (std::size_t at = printed.find("[cell "); at != std::string::npos;
       at = printed.find("[cell ", at + 1)) {
    ++ran;
  }
  return ran;
}

TEST(JournalAdversarial, RestartReplaysExactlyTheValidPrefix) {
  // A restarted driver or shard replays its file's valid prefix —
  // whatever the damage after it — runs exactly the missing cells, and
  // lands on the clean run's bytes with a whole, clean file.  Three cheap
  // cells keep the fourteen campaigns fast; shard 0 of 1 holds them all.
  auto scale = tiny_scale();
  scale.runs = 3;
  scale.evals = 6;
  scale.scenarios = {"static-grid"};
  const auto plan = ExperimentPlan::of({"Random"}, scale);
  const auto cells = plan.cells();
  ExperimentDriver::Options driver;
  driver.workers = 1;
  driver.verbose = false;
  driver.use_cache = true;
  driver.cache_dir = scratch_dir("journal_adversarial_ref");
  (void)ExperimentDriver(driver).run(plan);
  const std::string reference =
      slurp(indicator_csv_path(driver.cache_dir, plan));

  auto records =
      ExperimentDriver(driver).run_cells(plan, {cells[0], cells[1], cells[2]});
  const std::string first = cell_log_record({0, records[0]});
  const std::string second = cell_log_record({1, records[1]});
  const std::string third = cell_log_record({2, records[2]});
  const std::string two = cell_log_header(plan) + first + second;
  std::string flipped = two + third;
  flipped[two.size() - second.size() + 10] ^= 0x04;
  auto other_scale = scale;
  other_scale.seed = 777;
  const auto other = ExperimentPlan::of({"Random"}, other_scale);
  const struct {
    const char* damage;
    std::string bytes;
    std::size_t replay;
  } stores[] = {
      {"intact", two + third, 3},
      {"torn tail", two + third.substr(0, third.size() / 2), 2},
      {"flipped bit", flipped, 1},
      {"repeated cell", two + first + third, 2},
      {"contradicting cell", two + cell_log_record({2, records[1]}), 2},
      {"another plan's header", cell_log_header(other) + first, 0},
      {"empty file", "", 0},
  };
  const auto expect_clean_finish = [&](const std::string& dir) {
    EXPECT_EQ(slurp(indicator_csv_path(dir, plan)), reference);
    const CellLog log = read_cell_log(slurp(cell_store_path(dir, plan)), plan);
    EXPECT_EQ(log.results.size(), plan.cell_count());
    EXPECT_EQ(log.defect, "");
  };
  for (const auto& store : stores) {
    SCOPED_TRACE(store.damage);
    const std::size_t missing = plan.cell_count() - store.replay;
    {
      SCOPED_TRACE("driver");
      ExperimentDriver::Options options = driver;
      options.verbose = true;
      options.cache_dir = scratch_dir("journal_adversarial_driver");
      spit(cell_store_path(options.cache_dir, plan), store.bytes);
      ::testing::internal::CaptureStdout();
      const auto result = ExperimentDriver(options).run(plan);
      const std::string printed = ::testing::internal::GetCapturedStdout();
      EXPECT_EQ(cells_run(printed), missing) << printed;
      EXPECT_EQ(result.from_cache, missing == 0);
      expect_clean_finish(options.cache_dir);
    }
    {
      SCOPED_TRACE("shard");
      ExperimentDriver::Options options = driver;
      options.verbose = true;
      const std::string dir = scratch_dir("journal_adversarial_shard");
      const std::string shard = shard_log_path(dir, plan, 0, 1);
      spit(shard, store.bytes);
      ::testing::internal::CaptureStdout();
      (void)ExperimentDriver(options).run_shard(plan, 0, 1, dir);
      const std::string printed = ::testing::internal::GetCapturedStdout();
      EXPECT_EQ(cells_run(printed), missing) << printed;
      const CellLog log = read_cell_log(slurp(shard), plan);
      EXPECT_EQ(log.results.size(), plan.cell_count());
      EXPECT_EQ(log.defect, "");
      const std::string merged = scratch_dir("journal_adversarial_merged");
      (void)merge_campaign(plan, dir, merged);
      expect_clean_finish(merged);
    }
  }
}

TEST(CampaignStore, CacheHitWritesNothing) {
  // A warm run — driver or shard — finds every cell in a whole, clean
  // file: it returns the same records and telemetry (and the driver the
  // same samples) and writes nothing (every file keeps its back-dated
  // modification time).  A store with a torn tail is still rewritten
  // whole.
  namespace fs = std::filesystem;
  auto scale = tiny_scale();
  scale.runs = 3;
  scale.evals = 6;
  scale.scenarios = {"static-grid"};
  const auto plan = ExperimentPlan::of({"Random"}, scale);
  ExperimentDriver::Options driver;
  driver.workers = 1;
  driver.verbose = false;
  driver.use_cache = true;
  driver.cache_dir = scratch_dir("cache_hit_writes_nothing");
  const auto fresh = ExperimentDriver(driver).run(plan);
  ASSERT_FALSE(fresh.from_cache);
  const std::string store = cell_store_path(driver.cache_dir, plan);
  const std::string csv = indicator_csv_path(driver.cache_dir, plan);
  const std::string store_bytes = slurp(store);
  const std::string csv_bytes = slurp(csv);
  const auto backdated = fs::file_time_type::clock::now() - std::chrono::hours(1);
  fs::last_write_time(store, backdated);
  fs::last_write_time(csv, backdated);

  const auto expect_same_result = [&](const ExperimentResult& warm) {
    EXPECT_TRUE(warm.from_cache);
    ASSERT_EQ(warm.samples.size(), fresh.samples.size());
    for (std::size_t i = 0; i < fresh.samples.size(); ++i) {
      EXPECT_EQ(warm.samples[i].hypervolume, fresh.samples[i].hypervolume) << i;
      EXPECT_EQ(warm.samples[i].igd, fresh.samples[i].igd) << i;
      EXPECT_EQ(warm.samples[i].spread, fresh.samples[i].spread) << i;
    }
    ASSERT_EQ(warm.records.size(), fresh.records.size());
    for (std::size_t i = 0; i < fresh.records.size(); ++i) {
      EXPECT_EQ(encode_cell_result({i, warm.records[i]}),
                encode_cell_result({i, fresh.records[i]}))
          << i;
    }
    EXPECT_EQ(warm.telemetry, fresh.telemetry);
    EXPECT_EQ(fs::last_write_time(store), backdated);
    EXPECT_EQ(fs::last_write_time(csv), backdated);
    EXPECT_EQ(slurp(store), store_bytes);
    EXPECT_EQ(slurp(csv), csv_bytes);
  };
  {
    SCOPED_TRACE("driver");
    expect_same_result(ExperimentDriver(driver).run(plan));
  }
  {
    SCOPED_TRACE("shard");
    // Shard 0 of 1 holds every cell in plan order, so the finished store
    // is byte for byte a finished shard file.
    const std::string dir = scratch_dir("cache_hit_shard");
    const std::string shard = shard_log_path(dir, plan, 0, 1);
    fs::copy_file(store, shard);
    fs::last_write_time(shard, backdated);
    const auto warm = ExperimentDriver(driver).run_shard(plan, 0, 1, dir);
    ASSERT_EQ(warm.size(), fresh.records.size());
    for (std::size_t i = 0; i < fresh.records.size(); ++i) {
      EXPECT_EQ(encode_cell_result({i, warm[i]}),
                encode_cell_result({i, fresh.records[i]}))
          << i;
    }
    EXPECT_EQ(merge_telemetry(warm), fresh.telemetry);
    EXPECT_EQ(fs::last_write_time(shard), backdated);
    EXPECT_EQ(slurp(shard), store_bytes);
  }
  {
    SCOPED_TRACE("torn tail");
    spit(store, store_bytes.substr(0, store_bytes.size() - 20));
    const auto repaired = ExperimentDriver(driver).run(plan);
    EXPECT_FALSE(repaired.from_cache);
    const CellLog log = read_cell_log(slurp(store), plan);
    EXPECT_EQ(log.defect, "");
    EXPECT_EQ(log.results.size(), plan.cell_count());
    EXPECT_EQ(slurp(csv), csv_bytes);
  }
}

// ---------------------------------------------------------------------------
// Faults in the driver's cell loop

TEST(CellStall, FiresOncePerComputedCellWithoutChangingBytes) {
  // The site is consulted once per computed cell — by the driver and by a
  // shard, never for a replayed one — and stalling every other cell
  // perturbs nothing but wall time.
  const auto plan = tiny_plan();
  const auto reference = ExperimentDriver(quiet(2)).run(plan);
  fault::ScopedPlan stalls("cell.stall_ms=every:2,value=1");
  const auto stalled = ExperimentDriver(quiet(2)).run(plan);
  EXPECT_EQ(fault::hits("cell.stall_ms"), plan.cell_count());
  ASSERT_EQ(stalled.samples.size(), reference.samples.size());
  for (std::size_t i = 0; i < reference.samples.size(); ++i) {
    EXPECT_EQ(stalled.samples[i].hypervolume, reference.samples[i].hypervolume)
        << i;
    EXPECT_EQ(stalled.samples[i].igd, reference.samples[i].igd) << i;
    EXPECT_EQ(stalled.samples[i].spread, reference.samples[i].spread) << i;
  }

  const std::string dir = scratch_dir("stall_shard");
  (void)ExperimentDriver(quiet(2)).run_shard(plan, 1, 2, dir);
  EXPECT_EQ(fault::hits("cell.stall_ms"),
            plan.cell_count() + cells_for_shard(plan, 1, 2).size());
  (void)ExperimentDriver(quiet(2)).run_shard(plan, 1, 2, dir);  // replays
  EXPECT_EQ(fault::hits("cell.stall_ms"),
            plan.cell_count() + cells_for_shard(plan, 1, 2).size());
}

TEST(CacheHardening, TornAppendResumesFromTheValidPrefix) {
  // The store's second append tears halfway (a crash inside write()) and
  // the campaign then dies at its third cell, so nothing repairs the
  // file: it replays exactly the record committed before the tear, and
  // the clean rerun runs the other two cells and lands on the unbroken
  // run's bytes with a whole, clean store.
  auto scale = tiny_scale();
  scale.runs = 3;
  scale.evals = 6;
  scale.scenarios = {"static-grid"};
  const auto plan = ExperimentPlan::of({"Random"}, scale);
  ExperimentDriver::Options options;
  options.workers = 1;
  options.verbose = false;
  options.cache_dir = scratch_dir("torn_append_ref");
  (void)ExperimentDriver(options).run(plan);
  const std::string reference =
      slurp(indicator_csv_path(options.cache_dir, plan));

  options.cache_dir = scratch_dir("torn_append");
  {
    fault::ScopedPlan torn("io.journal.torn_tail=nth:2");
    const ScopedFailingAlgorithm failing("Random", 3);
    EXPECT_THROW((void)ExperimentDriver(options).run(plan),
                 std::runtime_error);
  }
  const std::string store = cell_store_path(options.cache_dir, plan);
  const CellLog torn = read_cell_log(slurp(store), plan);
  EXPECT_EQ(torn.results.size(), 1u);
  EXPECT_NE(torn.defect.find("torn"), std::string::npos) << torn.defect;

  options.verbose = true;
  ::testing::internal::CaptureStdout();
  EXPECT_FALSE(ExperimentDriver(options).run(plan).from_cache);
  const std::string printed = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(cells_run(printed), 2u) << printed;
  EXPECT_EQ(slurp(indicator_csv_path(options.cache_dir, plan)), reference);
  const CellLog whole = read_cell_log(slurp(store), plan);
  EXPECT_EQ(whole.results.size(), plan.cell_count());
  EXPECT_EQ(whole.defect, "");
}

}  // namespace
}  // namespace aedbmls::expt
