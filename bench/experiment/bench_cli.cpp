#include "experiment/bench_cli.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/assert.hpp"
#include "common/fault.hpp"
#include "common/telemetry.hpp"
#include "par/net/tcp_transport.hpp"

#include "expt/algorithm_registry.hpp"
#include "expt/campaign_options.hpp"
#include "expt/campaign_service.hpp"
#include "expt/manifest.hpp"
#include "expt/scenario_catalog.hpp"

namespace aedbmls::expt {

void maybe_list_catalogs_and_exit(const CliArgs& args) {
  const bool scenarios = args.has("list-scenarios");
  const bool algorithms = args.has("list-algorithms");
  if (!scenarios && !algorithms) return;
  if (scenarios) {
    std::printf("registered scenarios (plus dynamic d<N> Table II "
                "densities):\n");
    for (const ScenarioSpec& spec : ScenarioCatalog::instance().specs()) {
      std::printf("  %-14s %s\n", spec.key.c_str(), spec.description.c_str());
    }
  }
  if (algorithms) {
    std::printf("registered algorithms:\n");
    for (const auto& entry : AlgorithmRegistry::instance().entries()) {
      std::printf("  %-16s %s\n", entry.name.c_str(),
                  entry.description.c_str());
    }
  }
  std::exit(0);
}

Scale resolve_scale_or_exit(const CliArgs& args) {
  maybe_list_catalogs_and_exit(args);
  try {
    return resolve_scale(args);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    std::exit(2);
  }
}

namespace {

/// `--progress[=N]`: a ProgressMeter over `total_cells` printing every N
/// cells.  nullptr when the flag is absent.
std::unique_ptr<telemetry::ProgressMeter> make_progress(
    const CampaignOptions& campaign, std::size_t total_cells) {
  if (!campaign.progress) return nullptr;
  return std::make_unique<telemetry::ProgressMeter>(total_cells,
                                                    campaign.progress_every);
}

/// `--telemetry-out=FILE`: durable dump of the snapshot via the line codec
/// (atomic replace + #crc32 trailer).
void maybe_write_telemetry(const CampaignOptions& campaign,
                           const telemetry::Snapshot& snapshot) {
  if (campaign.telemetry_out.empty()) return;
  const std::size_t lines =
      write_telemetry_file(campaign.telemetry_out, snapshot);
  std::printf("[telemetry] %zu instrument lines -> %s\n", lines,
              campaign.telemetry_out.c_str());
}

/// `--front-out=DIR`: canonically-sorted per-scenario reference fronts.
void maybe_write_fronts(const CampaignOptions& campaign,
                        const ExperimentPlan& plan,
                        const ExperimentResult& result) {
  if (campaign.front_out.empty()) return;
  write_front_csvs(campaign.front_out, plan, result.records);
  std::printf("[front] %zu scenario reference fronts -> %s/\n",
              plan.scenarios.size(), campaign.front_out.c_str());
}

/// Network knobs shared by --serve and --connect, from the environment
/// (flags would collide with per-bench options; the elastic CI job and
/// failure-injection tests tune these).
par::net::TcpOptions net_options_from_env() {
  par::net::TcpOptions net;  // the fallbacks are TcpOptions' defaults
  net.heartbeat_interval = std::chrono::milliseconds(std::max(
      0L, env_or_int("AEDB_NET_HEARTBEAT_MS", net.heartbeat_interval.count())));
  net.peer_deadline = std::chrono::milliseconds(std::max(
      0L, env_or_int("AEDB_NET_DEADLINE_MS", net.peer_deadline.count())));
  net.connect_attempts = static_cast<std::size_t>(
      std::max(1L, env_or_int("AEDB_NET_CONNECT_ATTEMPTS",
                              static_cast<long>(net.connect_attempts))));
  return net;
}

}  // namespace

ExperimentResult run_campaign_or_exit(const CliArgs& args,
                                      const ExperimentPlan& plan) {
  CampaignOptions campaign;
  try {
    campaign = parse_campaign_options(args);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    std::exit(2);
  }
  ExperimentDriver::Options options;
  options.workers = campaign.workers;
  if (campaign.cache_dir) options.cache_dir = *campaign.cache_dir;
  options.use_cache = campaign.use_cache;
  // Chaos drills: `--fault-plan=SPEC` wins over AEDB_FAULT_PLAN (see
  // common/fault.hpp for the grammar and EXPERIMENTS.md for the drills).
  try {
    if (campaign.fault_plan) {
      fault::configure(*campaign.fault_plan);
    } else {
      fault::configure_from_env();
    }
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    std::exit(2);
  }
  if (fault::active()) {
    std::fprintf(stderr, "[fault] plan active: %s\n",
                 fault::describe().c_str());
  }
  try {
    switch (campaign.mode) {
      case CampaignMode::kMerge: {
        auto result =
            merge_campaign(plan, campaign.merge_dir, options.cache_dir);
        std::printf(
            "[merge] %zu indicator samples reassembled from %s -> %s\n",
            result.samples.size(), campaign.merge_dir.c_str(),
            indicator_csv_path(options.cache_dir, plan).c_str());
        maybe_write_telemetry(campaign, result.telemetry);
        maybe_write_fronts(campaign, plan, result);
        return result;
      }
      case CampaignMode::kServe: {
        const auto progress = make_progress(campaign, plan.cell_count());
        options.progress = progress.get();
        CampaignCoordinatorOptions coordinator;
        coordinator.driver = std::move(options);
        par::net::TcpListener listener(campaign.serve_port,
                                       net_options_from_env());
        std::printf("[serve] listening on port %u; waiting for %zu workers\n",
                    listener.port(), campaign.workers);
        std::fflush(stdout);
        const auto transport = listener.accept_workers(campaign.workers);
        std::printf("[serve] %zu workers connected; scheduling %zu cells\n",
                    campaign.workers, plan.cell_count());
        std::fflush(stdout);
        auto result = run_campaign_coordinator(plan, *transport, coordinator);
        transport->close();
        maybe_write_telemetry(campaign, result.telemetry);
        maybe_write_fronts(campaign, plan, result);
        return result;
      }
      case CampaignMode::kConnect: {
        CampaignWorkerOptions worker;
        worker.driver = std::move(options);
        const auto transport = par::net::TcpTransport::connect(
            campaign.connect_host, campaign.connect_port,
            net_options_from_env());
        std::printf("[connect] joined %s:%u as rank %zu of %zu\n",
                    campaign.connect_host.c_str(), campaign.connect_port,
                    transport->rank(), transport->world_size());
        std::fflush(stdout);
        WorkerReport report;
        try {
          report = run_campaign_worker(plan, *transport, worker);
        } catch (const CoordinatorLostError& error) {
          // Distinct exit status: a lost coordinator is an orchestration
          // failure (restart the coordinator, workers reconnect), not a bad
          // invocation (exit 2) or a worker bug.
          std::fprintf(stderr, "error: %s\n", error.what());
          std::exit(3);
        }
        std::printf("[connect] completed %zu cells; coordinator released "
                    "this worker\n",
                    report.cells_completed);
        maybe_write_telemetry(campaign, report.telemetry);
        // Like --shard, a worker holds partial results only — the bench
        // cannot continue on them, so part ways here.
        std::exit(0);
      }
      case CampaignMode::kShard: {
        // Reject bad plans before burning a shard's worth of compute — the
        // driver validates inside run(), but run_cells is below that
        // layer.
        validate_plan(plan);
        const auto cells =
            cells_for_shard(plan, campaign.shard_index, campaign.shard_count);
        // Shard progress counts the shard's own cells, not the whole grid.
        const auto progress = make_progress(campaign, cells.size());
        options.progress = progress.get();
        std::printf("[shard %zu/%zu] running %zu of %zu cells\n",
                    campaign.shard_index, campaign.shard_count, cells.size(),
                    plan.cell_count());
        auto records = ExperimentDriver(options).run_cells(plan, cells);
        // The shard's own telemetry fold (its cells in shard order) — the
        // campaign-wide fold belongs to the --merge run.
        if (!campaign.telemetry_out.empty()) {
          maybe_write_telemetry(campaign, merge_telemetry(records));
        }
        // One cell log per shard, written atomically: a merge never sees
        // half a shard.
        std::vector<CellResult> results;
        for (std::size_t i = 0; i < cells.size(); ++i) {
          results.push_back(CellResult{cells[i].index, std::move(records[i])});
        }
        const std::string path = campaign.shard_dir + "/shard_" +
                                 std::to_string(campaign.shard_index) + "_of_" +
                                 std::to_string(campaign.shard_count) +
                                 ".manifest";
        write_cell_log(path, plan, results);
        std::printf("[shard %zu/%zu] wrote %s\n", campaign.shard_index,
                    campaign.shard_count, path.c_str());
        std::exit(0);
      }
      case CampaignMode::kLocal: {
        const auto progress = make_progress(campaign, plan.cell_count());
        options.progress = progress.get();
        auto result = ExperimentDriver(std::move(options)).run(plan);
        maybe_write_telemetry(campaign, result.telemetry);
        maybe_write_fronts(campaign, plan, result);
        return result;
      }
    }
    AEDB_UNREACHABLE("unhandled campaign mode");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    std::exit(2);
  }
}

std::vector<std::string> algorithms_or_exit(
    const CliArgs& args, const std::vector<std::string>& fallback) {
  const std::vector<std::string> names =
      args.has("algorithms") ? split_csv(args.get("algorithms")) : fallback;
  if (names.empty()) {
    std::fprintf(stderr,
                 "error: --algorithms is empty; registered algorithms:");
    for (const auto& name : AlgorithmRegistry::instance().names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (!AlgorithmRegistry::instance().contains(names[i])) {
      std::fprintf(stderr, "error: unknown algorithm '%s'; registered:",
                   names[i].c_str());
      for (const auto& known : AlgorithmRegistry::instance().names()) {
        std::fprintf(stderr, " %s", known.c_str());
      }
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (names[i] == names[j]) {
        std::fprintf(stderr,
                     "error: duplicate algorithm '%s' in --algorithms\n",
                     names[i].c_str());
        std::exit(2);
      }
    }
  }
  return names;
}

void print_header(const std::string& bench_name, const std::string& regenerates,
                  const Scale& scale) {
  std::printf("================================================================\n");
  std::printf("%s — regenerates %s\n", bench_name.c_str(), regenerates.c_str());
  std::printf("paper setup (Tables II/III): 500x500 m arena, random walk <=2 m/s\n");
  std::printf("  (direction change 20 s), beacons 1 Hz, default tx 16.02 dBm,\n");
  std::printf("  broadcast at t=30 s, end t=40 s; domains: delay [0,1]/[0,5] s,\n");
  std::printf("  border [-95,-70] dBm, margin [0,3] dB, neighbors [0,50]\n");
  std::printf("scale '%s': %zu networks/eval, %zu runs, %zu evals/run, "
              "MLS %zux%zu, seed %llu, fidelity %s\n",
              scale.name.c_str(), scale.networks, scale.runs, scale.evals,
              scale.mls_populations, scale.mls_threads,
              static_cast<unsigned long long>(scale.seed),
              scale.fidelity.c_str());
  std::printf("scenarios:");
  for (const std::string& key : scale.scenarios) {
    std::printf(" %s", key.c_str());
  }
  std::printf("  (catalog:");
  for (const std::string& key : ScenarioCatalog::instance().names()) {
    std::printf(" %s", key.c_str());
  }
  std::printf(")\n");
  std::printf("  (set AEDB_SCALE=paper, AEDB_SCENARIO=..., --fidelity=race, "
              "or --runs/--evals/--scenarios=... to rescale)\n");
  std::printf("================================================================\n\n");
}

}  // namespace aedbmls::expt
