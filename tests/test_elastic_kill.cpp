/// The elastic campaign's headline failure drill, end to end over real
/// sockets and real processes: 1 coordinator + 3 forked workers, one of
/// which is SIGKILLed mid-cell.  The coordinator must detect the death,
/// requeue the orphaned cell, and still produce indicator samples and a
/// cached CSV byte-identical to an unsharded in-process run.
///
/// Not part of the TSan suite: fork() from a threaded sanitizer runtime
/// is unsupported, and the kill timing is wall-clock based.

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

#include "common/fault.hpp"
#include "expt/campaign_service.hpp"
#include "expt/experiment.hpp"
#include "par/net/tcp_transport.hpp"

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

TEST(ElasticKill, SigkilledWorkerIsRequeuedByteIdentical) {
  const auto plan = tiny_plan();
  const std::string ref_dir = scratch_dir("kill_ref");
  const std::string elastic_dir = scratch_dir("kill_run");

  // Ground truth first, in-process — its thread pools are joined before
  // any fork() below, so the children start from a quiet address space.
  ExperimentDriver::Options ref_options = quiet(2);
  ref_options.use_cache = true;
  ref_options.cache_dir = ref_dir;
  const auto reference = ExperimentDriver(ref_options).run(plan);

  par::net::TcpOptions net;
  net.heartbeat_interval = 100ms;
  net.peer_deadline = 1000ms;
  par::net::TcpListener listener(0, net);

  // 3 workers; the first stalls 2s before every cell (its own fault plan,
  // installed after fork()) so the SIGKILL at ~500ms is guaranteed to land
  // while it holds an in-flight assignment.
  std::vector<pid_t> children;
  for (int i = 0; i < 3; ++i) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      int status = 1;
      try {
        if (i == 0) fault::configure("cell.stall_ms=always,value=2000");
        const auto transport =
            par::net::TcpTransport::connect("127.0.0.1", listener.port(), net);
        CampaignWorkerOptions worker;
        worker.driver = quiet(1);
        (void)run_campaign_worker(plan, *transport, worker);
        status = 0;
      } catch (...) {
        // The victim never reaches here (SIGKILL); survivors must.
      }
      _exit(status);
    }
    children.push_back(pid);
  }

  const auto coordinator = listener.accept_workers(3);
  std::thread killer([&] {
    std::this_thread::sleep_for(500ms);
    ::kill(children[0], SIGKILL);
  });

  CampaignCoordinatorOptions options;
  options.driver = quiet(1);
  options.driver.use_cache = true;
  options.driver.cache_dir = elastic_dir;
  const auto result =
      run_campaign_coordinator(plan, *coordinator, options);
  killer.join();
  coordinator->close();

  int victim_status = 0;
  ASSERT_EQ(::waitpid(children[0], &victim_status, 0), children[0]);
  EXPECT_TRUE(WIFSIGNALED(victim_status));
  for (std::size_t i = 1; i < children.size(); ++i) {
    int status = 0;
    ASSERT_EQ(::waitpid(children[i], &status, 0), children[i]);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "worker " << i << " status " << status;
  }

  ASSERT_EQ(result.samples.size(), reference.samples.size());
  for (std::size_t i = 0; i < result.samples.size(); ++i) {
    EXPECT_EQ(result.samples[i].algorithm, reference.samples[i].algorithm);
    EXPECT_EQ(result.samples[i].scenario, reference.samples[i].scenario);
    EXPECT_EQ(result.samples[i].run_seed, reference.samples[i].run_seed);
    // Bitwise: a mid-campaign SIGKILL must not change a single byte.
    EXPECT_EQ(result.samples[i].hypervolume,
              reference.samples[i].hypervolume);
    EXPECT_EQ(result.samples[i].igd, reference.samples[i].igd);
    EXPECT_EQ(result.samples[i].spread, reference.samples[i].spread);
  }
  const std::string ref_csv = slurp(indicator_csv_path(ref_dir, plan));
  ASSERT_FALSE(ref_csv.empty());
  EXPECT_EQ(slurp(indicator_csv_path(elastic_dir, plan)), ref_csv);
}

}  // namespace
}  // namespace aedbmls::expt
