#include "experiment/bench_cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/assert.hpp"
#include "common/fault.hpp"
#include "common/telemetry.hpp"

#include "expt/algorithm_registry.hpp"
#include "expt/manifest.hpp"
#include "expt/scenario_catalog.hpp"

namespace aedbmls::expt {

void maybe_list_catalogs_and_exit(const CliArgs& args) {
  const bool scenarios = args.has("list-scenarios");
  const bool algorithms = args.has("list-algorithms");
  if (!scenarios && !algorithms) return;
  if (scenarios) {
    std::printf("registered scenarios (plus dynamic d<N> Table II "
                "density keys):\n");
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

}  // namespace

ExperimentResult run_campaign_or_exit(const CliArgs& args,
                                      const ExperimentPlan& plan) {
  try {
    const CampaignOptions campaign = parse_campaign_options(args);
    ExperimentDriver::Options options;
    options.workers = campaign.workers;
    if (campaign.cache_dir) options.cache_dir = *campaign.cache_dir;
    options.use_cache = campaign.use_cache;
    // Chaos drills (common/fault.hpp has the grammar, EXPERIMENTS.md the
    // drills); an empty plan installs nothing.
    fault::configure(campaign.fault_plan);
    if (fault::active()) {
      std::fprintf(stderr, "[fault] plan active: %s\n",
                   fault::describe().c_str());
    }
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
      case CampaignMode::kShard: {
        // Shard progress counts the shard's own cells, not the whole grid.
        const auto progress = make_progress(
            campaign, cells_for_shard(plan, campaign.shard_index,
                                      campaign.shard_count)
                          .size());
        options.progress = progress.get();
        const auto records = ExperimentDriver(options).run_shard(
            plan, campaign.shard_index, campaign.shard_count,
            campaign.shard_dir);
        // The shard's own telemetry fold (its cells in shard order) — the
        // campaign-wide fold belongs to the --merge run.
        maybe_write_telemetry(campaign, merge_telemetry(records));
        std::printf("[shard %zu/%zu] done: %zu cells in %s\n",
                    campaign.shard_index, campaign.shard_count,
                    records.size(),
                    shard_log_path(campaign.shard_dir, plan,
                                   campaign.shard_index, campaign.shard_count)
                        .c_str());
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
  std::printf("  (pass --scale=paper, --scenarios=..., --fidelity=race, "
              "or --runs/--evals=... to rescale)\n");
  std::printf("================================================================\n\n");
}

}  // namespace aedbmls::expt
