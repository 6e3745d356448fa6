/// Chaos drills for the elastic campaign service: everything the fault
/// plans can throw at it at once, end to end.
///
/// The headline test forks a five-worker fleet over real sockets — one
/// stalled by the `cell.stall_ms` site, one SIGKILLed mid-cell, one
/// corrupting its received frames, one tearing its own sends, one clean —
/// while the coordinator drops an incoming data frame by plan and starts
/// from a poisoned campaign store.  The campaign must still produce an
/// indicator CSV byte-identical to a clean unsharded run.  The remaining
/// tests are in-process (TSan-safe): a store torn mid-append followed by
/// a resumed run, and the `cell.stall_ms` wiring under a live plan.
///
/// The fork-based drill self-skips under ThreadSanitizer (fork() from a
/// threaded sanitizer runtime is unsupported).  Built without fault
/// injection it still runs the kill and the poisoned store; only the
/// fault-plan sabotage is gone.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/durable_file.hpp"
#include "common/fault.hpp"
#include "expt/campaign_service.hpp"
#include "expt/experiment.hpp"
#include "expt/manifest.hpp"
#include "par/net/tcp_transport.hpp"
#include "par/net/transport.hpp"

#if defined(__SANITIZE_THREAD__)
#define AEDBMLS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AEDBMLS_TSAN 1
#endif
#endif

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

void expect_identical_samples(const ExperimentResult& result,
                              const ExperimentResult& reference) {
  ASSERT_EQ(result.samples.size(), reference.samples.size());
  for (std::size_t i = 0; i < result.samples.size(); ++i) {
    EXPECT_EQ(result.samples[i].algorithm, reference.samples[i].algorithm);
    EXPECT_EQ(result.samples[i].scenario, reference.samples[i].scenario);
    EXPECT_EQ(result.samples[i].run_seed, reference.samples[i].run_seed);
    // Bitwise: no amount of chaos may change a single byte.
    EXPECT_EQ(result.samples[i].hypervolume, reference.samples[i].hypervolume);
    EXPECT_EQ(result.samples[i].igd, reference.samples[i].igd);
    EXPECT_EQ(result.samples[i].spread, reference.samples[i].spread);
  }
}

TEST(ChaosCampaign, EverythingAtOnceIsByteIdentical) {
#ifdef AEDBMLS_TSAN
  GTEST_SKIP() << "fork() from a TSan runtime is unsupported";
#else
  const auto plan = tiny_plan();
  const std::string ref_dir = scratch_dir("chaos_ref");
  const std::string elastic_dir = scratch_dir("chaos_run");

  // Ground truth first, in-process — its thread pools are joined before
  // any fork() below, so the children start from a quiet address space.
  ExperimentDriver::Options ref_options = quiet(2);
  ref_options.use_cache = true;
  ref_options.cache_dir = ref_dir;
  const auto reference = ExperimentDriver(ref_options).run(plan);
  const std::string ref_csv = slurp(indicator_csv_path(ref_dir, plan));
  ASSERT_FALSE(ref_csv.empty());

  // Pre-corrupt the coordinator's store: the reference run's bytes with
  // one flipped digit in the second record's front, so its CRC fails.  The
  // coordinator must warn, replay only the first record and recompute the
  // rest instead of serving the poisoned cell.
  std::string poisoned = slurp(cell_store_path(ref_dir, plan));
  const std::size_t second = poisoned.find("\ncell 1 ");
  ASSERT_NE(second, std::string::npos);
  const std::size_t digit = poisoned.find("\npoint ", second) + 7;
  ASSERT_LT(digit, poisoned.size());
  poisoned[digit] ^= 0x01;
  std::ofstream(cell_store_path(elastic_dir, plan), std::ios::binary)
      << poisoned;

  par::net::TcpOptions net;
  net.heartbeat_interval = 100ms;
  net.peer_deadline = 1500ms;
  par::net::TcpListener listener(0, net);

  // Five workers, four of them sabotaged.  Per-child fault plans are
  // installed after fork(), so each process runs its own chaos:
  //   0: every cell stalled 300ms by the cell.stall_ms site (slow, alive)
  //   1: the victim — parked 2.5s in every cell by the same site and
  //      SIGKILLed below
  //   2: corrupts the 4th chunk its reader receives (poisons its link)
  //   3: tears one of its own sends mid-frame
  //   4: clean
  // The coordinator additionally drops the 7th data frame it receives, so
  // at most one of {0, 4} can be severed — at least one worker survives.
  std::vector<pid_t> children;
  for (int i = 0; i < 5; ++i) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      int status = 1;
      try {
        switch (i) {
          case 0: fault::configure("cell.stall_ms=always,value=300"); break;
          case 1: fault::configure("cell.stall_ms=always,value=2500"); break;
          case 2: fault::configure("net.frame.corrupt=nth:4"); break;
          case 3: fault::configure("net.send.short_write=nth:3"); break;
          default: break;
        }
        const auto transport =
            par::net::TcpTransport::connect("127.0.0.1", listener.port(), net);
        CampaignWorkerOptions worker;
        worker.driver = quiet(1);
        (void)run_campaign_worker(plan, *transport, worker);
        status = 0;
      } catch (const CoordinatorLostError&) {
        status = 3;  // the distinct "coordinator vanished" exit contract
      } catch (...) {
      }
      _exit(status);
    }
    children.push_back(pid);
  }

  // The coordinator's own plan — installed after the forks so the
  // children do not inherit it.
  fault::ScopedPlan drop_one("seed=42;net.frame.drop=nth:7");

  const auto coordinator = listener.accept_workers(5);
  std::thread killer([&] {
    std::this_thread::sleep_for(600ms);
    ::kill(children[1], SIGKILL);
  });

  CampaignCoordinatorOptions options;
  options.driver = quiet(1);
  options.driver.use_cache = true;
  options.driver.cache_dir = elastic_dir;
  const auto result = run_campaign_coordinator(plan, *coordinator, options);
  killer.join();
  coordinator->close();

  int victim_status = 0;
  ASSERT_EQ(::waitpid(children[1], &victim_status, 0), children[1]);
  EXPECT_TRUE(WIFSIGNALED(victim_status));
  int clean_exits = 0;
  for (std::size_t i = 0; i < children.size(); ++i) {
    if (i == 1) continue;
    int status = 0;
    ASSERT_EQ(::waitpid(children[i], &status, 0), children[i]);
    ASSERT_TRUE(WIFEXITED(status)) << "worker " << i;
    // Sabotaged workers exit 3 (coordinator lost from their side);
    // survivors exit 0.  Anything else is a bug.
    EXPECT_TRUE(WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 3)
        << "worker " << i << " exited " << WEXITSTATUS(status);
    if (WEXITSTATUS(status) == 0) ++clean_exits;
  }
  EXPECT_GE(clean_exits, 1);

  expect_identical_samples(result, reference);
  EXPECT_FALSE(result.from_cache);  // the poisoned cell was not trusted
  EXPECT_EQ(slurp(indicator_csv_path(elastic_dir, plan)), ref_csv);
  // The store ends whole and clean: the poisoned record was recomputed.
  const CellLog log =
      read_cell_log(slurp(cell_store_path(elastic_dir, plan)), plan);
  EXPECT_EQ(log.results.size(), plan.cell_count());
  EXPECT_EQ(log.defect, "");
#endif
}

TEST(ChaosCampaign, TornJournalResumesFromTheValidPrefix) {
  const auto plan = tiny_plan();
  const std::string ref_dir = scratch_dir("chaos_journal_ref");
  const std::string dir = scratch_dir("chaos_journal");
  ExperimentDriver::Options ref_options = quiet(2);
  ref_options.use_cache = true;
  ref_options.cache_dir = ref_dir;
  const auto reference = ExperimentDriver(ref_options).run(plan);

  // Round 1: the journal tears on its second append (the coordinator "dies
  // inside write()") and the only worker crashes after three cells, so the
  // campaign fails with cells incomplete.
  {
    fault::ScopedPlan torn("io.journal.torn_tail=nth:2");
    par::net::InProcWorld world(2);
    std::thread worker([&plan, &world] {
      CampaignWorkerOptions options;
      options.driver = quiet(1);
      options.max_cells = 3;
      try {
        (void)run_campaign_worker(plan, world.endpoint(1), options);
      } catch (...) {
      }
    });
    CampaignCoordinatorOptions options;
    options.driver = quiet(1);
    options.driver.use_cache = true;
    options.driver.cache_dir = dir;
    EXPECT_THROW(
        (void)run_campaign_coordinator(plan, world.endpoint(0), options),
        std::runtime_error);
    worker.join();
  }

  // The torn store survives the failure and replays exactly its valid
  // prefix: the first record committed before the tear.
  const std::string store = cell_store_path(dir, plan);
  EXPECT_EQ(read_cell_log(slurp(store), plan).results.size(), 1u);

  // Round 2, fault-free: the restarted coordinator resumes from the
  // store and a whole worker carries the remainder.
  {
    par::net::InProcWorld world(2);
    std::thread worker([&plan, &world] {
      CampaignWorkerOptions options;
      options.driver = quiet(1);
      (void)run_campaign_worker(plan, world.endpoint(1), options);
    });
    CampaignCoordinatorOptions options;
    options.driver = quiet(1);
    options.driver.use_cache = true;
    options.driver.cache_dir = dir;
    const auto result =
        run_campaign_coordinator(plan, world.endpoint(0), options);
    worker.join();
    expect_identical_samples(result, reference);
  }
  const CellLog log = read_cell_log(slurp(store), plan);
  EXPECT_EQ(log.results.size(), plan.cell_count());
  EXPECT_EQ(log.defect, "");
  EXPECT_EQ(slurp(indicator_csv_path(dir, plan)),
            slurp(indicator_csv_path(ref_dir, plan)));
}

TEST(ChaosCampaign, StallSiteFiresOncePerCellWithoutChangingBytes) {
  const auto plan = tiny_plan();
  const auto reference = ExperimentDriver(quiet(2)).run(plan);

  fault::ScopedPlan stalls("cell.stall_ms=every:2,value=1");
  par::net::InProcWorld world(2);
  std::thread worker([&plan, &world] {
    CampaignWorkerOptions options;
    options.driver = quiet(1);
    (void)run_campaign_worker(plan, world.endpoint(1), options);
  });
  CampaignCoordinatorOptions options;
  options.driver = quiet(1);
  const auto result =
      run_campaign_coordinator(plan, world.endpoint(0), options);
  worker.join();

  // The site is consulted exactly once per computed cell, and stalling
  // every other cell perturbs nothing but wall time.
  EXPECT_EQ(fault::hits("cell.stall_ms"), plan.cell_count());
  expect_identical_samples(result, reference);
}

}  // namespace
}  // namespace aedbmls::expt
