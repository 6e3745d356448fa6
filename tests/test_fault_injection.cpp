/// The fault-injection subsystem and the durable I/O it attacks: plan
/// grammar + trigger semantics + seeded determinism, CRC32 trailers and
/// atomic file replacement, manifest corruption handling, the campaign
/// store under adversarial inputs (torn tail, bit flips, repeated and
/// contradicting cells, wrong fingerprint, empty file) replayed by both
/// the driver and the elastic coordinator, worker-side coordinator-loss detection
/// (typed error + heartbeat deadline over real sockets), and the four
/// `net.*` sites wired into TcpTransport.  Thread-based only — the forked
/// chaos drill lives in test_chaos_campaign.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/durable_file.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "expt/campaign_service.hpp"
#include "expt/experiment.hpp"
#include "expt/manifest.hpp"
#include "par/net/tcp_transport.hpp"
#include "par/net/transport.hpp"
#include "seeded_mutants.hpp"

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

ExperimentPlan tiny_plan() {
  return ExperimentPlan::of({"NSGAII", "Random"}, tiny_scale());
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
  EXPECT_FALSE(fault::fire("net.frame.drop"));
  EXPECT_EQ(fault::describe(), "");

  fault::configure("net.frame.drop=always");
  EXPECT_TRUE(fault::active());
  fault::clear();
  EXPECT_FALSE(fault::active());
  EXPECT_FALSE(fault::fire("net.frame.drop"));
}

TEST(FaultPlan, DescribeRoundTripsTheSpec) {
  const std::string spec =
      "seed=42;cell.stall_ms=always,value=1500;net.frame.drop=nth:6";
  fault::configure(spec);
  const std::string canonical = fault::describe();
  fault::configure(canonical);
  EXPECT_EQ(fault::describe(), canonical);
  EXPECT_NE(canonical.find("seed=42"), std::string::npos);
  EXPECT_NE(canonical.find("net.frame.drop=nth:6"), std::string::npos);
  EXPECT_NE(canonical.find("cell.stall_ms=always,value=1500"),
            std::string::npos);
  fault::clear();
}

TEST(FaultPlan, RejectsMalformedSpecsWithoutInstallingThem) {
  fault::configure("net.frame.drop=nth:2");
  const char* bad[] = {
      "net.frame.dorp=always",        // unknown site (typo must fail loudly)
      "net.frame.drop",               // no trigger
      "net.frame.drop=nth:0",         // nth is 1-based
      "net.frame.drop=every:0",       // zero period
      "net.frame.drop=prob:1.5",      // probability out of range
      "net.frame.drop=maybe",         // unknown trigger
      "net.frame.drop=nth:2,delay=5", // unknown option
      "net.frame.drop=always,value=x",
      "seed=notanumber",
      "net.frame.drop=always;net.frame.drop=off",  // duplicate site
      // Signed counts must not wrap to 2^64 - n: nth:-1 would install a
      // site that silently never fires.
      "net.frame.drop=nth:-1",
      "net.frame.drop=every:-2",
      "net.frame.drop=after:-1",
      "seed=-7",
      "net.frame.drop=nth:+3",
  };
  for (const char* spec : bad) {
    EXPECT_THROW(fault::configure(spec), std::invalid_argument) << spec;
  }
  // A rejected spec never replaces the active plan.
  EXPECT_EQ(fault::describe(), "net.frame.drop=nth:2");
  fault::clear();
}

TEST(FaultPlan, SeededMutantsAreRejectedOrDescribeStably) {
  // Seeded mutation harness (the cell log's pattern): a full plan cut at
  // every byte, seeded byte flips, seeded splices of another plan.  A
  // mutant either throws std::invalid_argument and leaves the previous
  // plan installed, or installs a plan whose describe() configures back
  // to the same describe().
  const std::string spec =
      "seed=7;net.frame.drop=nth:6;net.frame.corrupt=after:2;"
      "net.send.short_write=every:3;io.cache.write_fail=prob:0.25;"
      "io.journal.torn_tail=off;cell.stall_ms=always,value=1500";
  const std::string donor =
      "seed=18446744073709551615; net.connect.refuse = every:12 ;"
      "cell.stall_ms=prob:1,value=-2.5e-3";
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
  fault::ScopedPlan plan(
      "net.frame.drop=nth:3;net.frame.corrupt=after:2;"
      "net.send.short_write=every:3;io.cache.write_fail=always;"
      "io.journal.torn_tail=off");
  for (int i = 1; i <= 9; ++i) {
    EXPECT_EQ(fault::fire("net.frame.drop"), i == 3) << i;
    EXPECT_EQ(fault::fire("net.frame.corrupt"), i > 2) << i;
    EXPECT_EQ(fault::fire("net.send.short_write"), i % 3 == 0) << i;
    EXPECT_TRUE(fault::fire("io.cache.write_fail")) << i;
    EXPECT_FALSE(fault::fire("io.journal.torn_tail")) << i;
    EXPECT_FALSE(fault::fire("cell.stall_ms")) << i;  // unconfigured
  }
  EXPECT_EQ(fault::hits("net.frame.drop"), 9u);
  EXPECT_EQ(fault::hits("cell.stall_ms"), 0u);
}

TEST(FaultPlan, SeededProbabilityReplaysDeterministically) {
  const auto draw = [](const std::string& spec) {
    fault::configure(spec);
    std::vector<bool> fired;
    fired.reserve(256);
    for (int i = 0; i < 256; ++i) {
      fired.push_back(fault::fire("net.frame.drop"));
    }
    return fired;
  };
  const auto a = draw("seed=1;net.frame.drop=prob:0.5");
  const auto b = draw("seed=1;net.frame.drop=prob:0.5");
  const auto c = draw("seed=2;net.frame.drop=prob:0.5");
  EXPECT_EQ(a, b);  // same plan string => same injection sequence
  EXPECT_NE(a, c);  // the seed is load-bearing
  const std::size_t fired = std::count(a.begin(), a.end(), true);
  EXPECT_GT(fired, 64u);  // crude sanity: roughly half fire
  EXPECT_LT(fired, 192u);

  fault::configure("net.frame.drop=prob:1");
  EXPECT_TRUE(fault::fire("net.frame.drop"));
  fault::configure("net.frame.drop=prob:0");
  EXPECT_FALSE(fault::fire("net.frame.drop"));
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
  fault::ScopedPlan plan("net.frame.drop=every:4");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::atomic<int> fired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fired] {
      for (int i = 0; i < kPerThread; ++i) {
        if (fault::fire("net.frame.drop")) fired.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Occurrence numbers are atomic, so exactly every 4th of the 4000 total
  // occurrences fired no matter how the threads interleaved.
  EXPECT_EQ(fired.load(), kThreads * kPerThread / 4);
  EXPECT_EQ(fault::hits("net.frame.drop"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(FaultPlan, ScopedPlanRestoresThePreviousPlan) {
  fault::configure("net.frame.drop=nth:1");
  {
    fault::ScopedPlan inner("io.cache.write_fail=always");
    EXPECT_EQ(fault::describe(), "io.cache.write_fail=always");
  }
  EXPECT_EQ(fault::describe(), "net.frame.drop=nth:1");
  EXPECT_TRUE(fault::fire("net.frame.drop"));  // counters reset on restore
  fault::clear();
}

TEST(FaultPlan, ConfiguresFromTheEnvironment) {
  fault::clear();
  ::setenv("AEDB_FAULT_PLAN", "net.frame.drop=nth:7", 1);
  EXPECT_TRUE(fault::configure_from_env());
  EXPECT_EQ(fault::describe(), "net.frame.drop=nth:7");
  ::unsetenv("AEDB_FAULT_PLAN");
  EXPECT_TRUE(fault::configure_from_env());  // unset leaves the plan alone
  EXPECT_EQ(fault::describe(), "net.frame.drop=nth:7");
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
  const std::string path = dir + "/shard_0_of_1.manifest";
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
  // Shard files of the retired v2 manifest format read as a foreign
  // header: regenerate the shard.
  const auto plan = tiny_plan();
  const std::string dir = scratch_dir("manifest_retired");
  const std::string path = dir + "/shard_0_of_1.manifest";
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

TEST(JournalAdversarial, RestartReplaysExactlyTheValidPrefix) {
  // A restarted driver or coordinator replays the store's valid prefix —
  // whatever the damage after it — runs exactly the missing cells, and
  // lands on the clean run's bytes with a whole, clean store.  Three cheap
  // cells keep the fourteen campaigns fast.
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
      std::size_t ran = 0;
      for (std::size_t at = printed.find("[cell "); at != std::string::npos;
           at = printed.find("[cell ", at + 1)) {
        ++ran;
      }
      EXPECT_EQ(ran, missing) << printed;
      EXPECT_EQ(result.from_cache, missing == 0);
      expect_clean_finish(options.cache_dir);
    }
    {
      SCOPED_TRACE("coordinator");
      const std::string dir = scratch_dir("journal_adversarial");
      spit(cell_store_path(dir, plan), store.bytes);
      par::net::InProcWorld world(2);
      WorkerReport report;
      std::thread worker([&] {
        CampaignWorkerOptions options;
        options.driver.workers = 1;
        options.driver.verbose = false;
        report = run_campaign_worker(plan, world.endpoint(1), options);
      });
      CampaignCoordinatorOptions coordinator;
      coordinator.driver = driver;
      coordinator.driver.cache_dir = dir;
      (void)run_campaign_coordinator(plan, world.endpoint(0), coordinator);
      worker.join();
      EXPECT_EQ(report.cells_completed, missing);
      expect_clean_finish(dir);
    }
  }
}

TEST(CampaignStore, CacheHitWritesNothing) {
  // A warm run — driver or coordinator — finds every cell in a whole,
  // clean store: it returns the same samples, records and telemetry and
  // writes neither the store nor the CSV (both keep their back-dated
  // modification times).  A store with a torn tail is still rewritten
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
    SCOPED_TRACE("coordinator");
    par::net::InProcWorld world(2);
    WorkerReport report;
    std::thread worker([&] {
      CampaignWorkerOptions options;
      options.driver.workers = 1;
      options.driver.verbose = false;
      report = run_campaign_worker(plan, world.endpoint(1), options);
    });
    CampaignCoordinatorOptions coordinator;
    coordinator.driver = driver;
    const auto warm = run_campaign_coordinator(plan, world.endpoint(0), coordinator);
    worker.join();
    EXPECT_EQ(report.cells_completed, 0u);
    expect_same_result(warm);
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
// Worker-side coordinator-loss detection

TEST(CoordinatorLoss, HandshakeAgainstDeadCoordinatorThrowsTypedError) {
  par::net::InProcWorld world(2);
  world.endpoint(0).close();
  CampaignWorkerOptions options;
  options.driver.workers = 1;
  options.driver.verbose = false;
  EXPECT_THROW(run_campaign_worker(tiny_plan(), world.endpoint(1), options),
               CoordinatorLostError);
}

TEST(CoordinatorLoss, MidCampaignDepartureThrowsTypedError) {
  const auto plan = tiny_plan();
  par::net::InProcWorld world(2);
  std::thread coordinator([&world] {
    auto ready = world.endpoint(0).recv();
    ASSERT_TRUE(ready.has_value());
    world.endpoint(0).close();  // vanish without a `done`
  });
  CampaignWorkerOptions options;
  options.driver.workers = 1;
  options.driver.verbose = false;
  try {
    (void)run_campaign_worker(plan, world.endpoint(1), options);
    FAIL() << "worker must notice the coordinator vanishing";
  } catch (const CoordinatorLostError& error) {
    EXPECT_NE(std::string(error.what()).find("coordinator lost"),
              std::string::npos);
  }
  coordinator.join();
}

TEST(CoordinatorLoss, MissedHeartbeatDeadlineOverTcpThrowsTypedError) {
  // The coordinator accepts the worker and then goes silent (its
  // heartbeats are disabled); the worker's deadline monitor must declare
  // it dead — the worker exits with a typed error instead of hanging.
  par::net::TcpOptions mute;
  mute.heartbeat_interval = 0ms;
  mute.peer_deadline = 0ms;
  par::net::TcpListener listener(0, mute);

  std::unique_ptr<par::net::TcpTransport> coordinator;
  std::thread accept([&] { coordinator = listener.accept_workers(1); });

  par::net::TcpOptions watchful;
  watchful.heartbeat_interval = 50ms;
  watchful.peer_deadline = 300ms;
  watchful.connect_backoff_base = 10ms;
  auto worker =
      par::net::TcpTransport::connect("127.0.0.1", listener.port(), watchful);
  accept.join();

  CampaignWorkerOptions options;
  options.driver.workers = 1;
  options.driver.verbose = false;
  try {
    (void)run_campaign_worker(tiny_plan(), *worker, options);
    FAIL() << "worker must miss the heartbeat deadline";
  } catch (const CoordinatorLostError& error) {
    EXPECT_NE(std::string(error.what()).find("heartbeat deadline exceeded"),
              std::string::npos);
  }
  worker->close();
  coordinator->close();
}

// ---------------------------------------------------------------------------
// Net fault sites over real sockets

/// A quiet two-endpoint TCP world (no heartbeats, no deadlines) so the
/// only write_all/reader traffic is the handshake plus what the test
/// sends — fault-site occurrence numbers are deterministic.
struct QuietTcpPair {
  par::net::TcpOptions options;
  std::unique_ptr<par::net::TcpListener> listener;
  std::unique_ptr<par::net::TcpTransport> coordinator;
  std::unique_ptr<par::net::TcpTransport> worker;

  QuietTcpPair() {
    options.heartbeat_interval = 0ms;
    options.peer_deadline = 0ms;
    options.connect_backoff_base = 1ms;
    listener = std::make_unique<par::net::TcpListener>(0, options);
    std::thread accept([this] { coordinator = listener->accept_workers(1); });
    worker =
        par::net::TcpTransport::connect("127.0.0.1", listener->port(), options);
    accept.join();
  }

  ~QuietTcpPair() {
    if (worker) worker->close();
    if (coordinator) coordinator->close();
  }
};

TEST(NetFaultSites, ShortWriteTearsTheFrameAndBothSidesNotice) {
  // Occurrences: 1 = worker hello, 2 = coordinator welcome, 3 = the data
  // frame below — torn mid-write.
  fault::ScopedPlan plan("net.send.short_write=nth:3");
  QuietTcpPair net;
  EXPECT_FALSE(net.worker->send(0, "ping"));
  auto seen = net.coordinator->recv();
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->kind, par::net::Message::Kind::kPeerLeft);
  EXPECT_NE(seen->payload.find("mid-frame"), std::string::npos)
      << seen->payload;
}

TEST(NetFaultSites, CorruptedBytePoisonsTheConnection) {
  QuietTcpPair net;
  // Configure after the handshake: the first post-handshake chunk any
  // reader receives is the ping below, corrupted at the frame-type byte.
  fault::ScopedPlan plan("net.frame.corrupt=nth:1");
  EXPECT_TRUE(net.worker->send(0, "ping"));
  auto seen = net.coordinator->recv();
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->kind, par::net::Message::Kind::kPeerLeft);
  EXPECT_NE(seen->payload.find("malformed frame"), std::string::npos)
      << seen->payload;
}

TEST(NetFaultSites, DroppedFrameSeversTheConnection) {
  QuietTcpPair net;
  fault::ScopedPlan plan("net.frame.drop=nth:1");
  EXPECT_TRUE(net.worker->send(0, "ping"));
  auto seen = net.coordinator->recv();
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->kind, par::net::Message::Kind::kPeerLeft);
  EXPECT_NE(seen->payload.find("dropped data frame"), std::string::npos)
      << seen->payload;
}

TEST(NetFaultSites, RefusedConnectConsumesRetryAttempts) {
  par::net::TcpOptions options;
  options.connect_attempts = 2;
  options.connect_backoff_base = 1ms;
  {
    // Every attempt refused before touching the network: no listener
    // needed, and the error names the injection.
    fault::ScopedPlan refuse_all("net.connect.refuse=always");
    try {
      (void)par::net::TcpTransport::connect("127.0.0.1", 1, options);
      FAIL() << "connect must exhaust its attempts";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("fault injection"),
                std::string::npos);
      EXPECT_NE(std::string(error.what()).find("2 attempts"),
                std::string::npos);
    }
  }
  {
    // First attempt refused, second lands: the retry loop absorbs the
    // fault exactly like a coordinator that boots late.
    fault::ScopedPlan refuse_once("net.connect.refuse=nth:1");
    options.heartbeat_interval = 0ms;
    options.peer_deadline = 0ms;
    par::net::TcpListener listener(0, options);
    std::unique_ptr<par::net::TcpTransport> coordinator;
    std::thread accept([&] { coordinator = listener.accept_workers(1); });
    auto worker =
        par::net::TcpTransport::connect("127.0.0.1", listener.port(), options);
    accept.join();
    // Two occurrences drawn (one per attempt); only the first fired.
    EXPECT_EQ(fault::hits("net.connect.refuse"), 2u);
    EXPECT_EQ(worker->rank(), 1u);
    worker->close();
    coordinator->close();
  }
}

// ---------------------------------------------------------------------------
// Coordinator-side protocol hardening

TEST(CoordinatorHardening, MalformedResultFailsTheWorkerNotTheCampaign) {
  const auto plan = tiny_plan();
  const auto cells = plan.cells();
  const std::string ref_dir = scratch_dir("hardening_ref");
  ExperimentDriver::Options ref_options;
  ref_options.workers = 2;
  ref_options.verbose = false;
  ref_options.use_cache = true;
  ref_options.cache_dir = ref_dir;
  const auto reference = ExperimentDriver(ref_options).run(plan);

  // Two liars answer their first assignment: one with bytes that are no
  // cell block, one with a well-formed block whose seed contradicts the
  // plan's cell table.
  const std::vector<std::function<std::string(std::size_t)>> lies = {
      [](std::size_t) { return std::string("not a cell block\n"); },
      [&cells](std::size_t index) {
        CellResult forged;
        forged.index = index;
        forged.record.algorithm = cells[index].algorithm;
        forged.record.scenario = cells[index].scenario;
        forged.record.run_seed = cells[index].seed ^ 1;
        return encode_cell_result(forged);
      },
  };
  par::net::InProcWorld world(2 + lies.size());
  // Rank 1: an honest worker that can carry the whole campaign.
  std::thread honest([&world, &plan] {
    CampaignWorkerOptions options;
    options.driver.workers = 1;
    options.driver.verbose = false;
    (void)run_campaign_worker(plan, world.endpoint(1), options);
  });
  std::vector<std::string> rejections(lies.size());
  std::vector<std::thread> liars;
  for (std::size_t l = 0; l < lies.size(); ++l) {
    liars.emplace_back([&world, &plan, &rejections, &lies, l] {
      auto& me = world.endpoint(2 + l);
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%llx",
                    static_cast<unsigned long long>(plan.fingerprint()));
      me.send(0, std::string("ready ") + buffer);
      for (;;) {
        auto message = me.recv();
        if (!message) return;
        if (message->kind != par::net::Message::Kind::kData) continue;
        if (message->payload.rfind("cell ", 0) == 0) {
          const std::string index = message->payload.substr(5);
          me.send(0, "result " + index + "\n" + lies[l](std::stoul(index)));
          continue;
        }
        if (message->payload.rfind("reject ", 0) == 0) {
          rejections[l] = message->payload;
          me.close();
          return;
        }
        return;
      }
    });
  }

  CampaignCoordinatorOptions coordinator;
  coordinator.driver.workers = 1;
  coordinator.driver.verbose = false;
  coordinator.driver.use_cache = false;
  const auto result =
      run_campaign_coordinator(plan, world.endpoint(0), coordinator);
  honest.join();
  for (std::thread& liar : liars) liar.join();

  // The campaign survived the liars, recomputed their cells elsewhere, and
  // each liar was told why it was dropped.
  ASSERT_EQ(result.samples.size(), reference.samples.size());
  for (std::size_t i = 0; i < result.samples.size(); ++i) {
    EXPECT_EQ(result.samples[i].hypervolume, reference.samples[i].hypervolume)
        << i;
  }
  EXPECT_NE(rejections[0].find("bad result"), std::string::npos)
      << rejections[0];
  EXPECT_NE(rejections[1].find("contradicts the plan"), std::string::npos)
      << rejections[1];
}

}  // namespace
}  // namespace aedbmls::expt
