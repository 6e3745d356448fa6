#include "expt/experiment.hpp"

#include <bit>
#include <chrono>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "aedb/tuning_problem.hpp"
#include "common/fault.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "expt/manifest.hpp"
#include "moo/core/dominance.hpp"
#include "moo/core/front_io.hpp"
#include "moo/core/normalization.hpp"
#include "moo/indicators/hypervolume.hpp"
#include "moo/indicators/igd.hpp"
#include "moo/indicators/spread.hpp"
#include "par/thread_pool.hpp"

namespace aedbmls::expt {
namespace {

std::uint64_t hash_string(std::uint64_t key, const std::string& text) {
  for (const char c : text) {
    key = hash_combine(key, static_cast<std::uint64_t>(
                                static_cast<unsigned char>(c)));
  }
  return hash_combine(key, 0x5E9A + text.size());
}

/// Executes one grid cell: fresh problem, fresh algorithm, one run.
RunRecord run_cell(const std::string& algorithm, const std::string& scenario,
                   std::uint64_t seed, const Scale& scale,
                   const moo::EvaluationEngine* evaluator) {
  const ScenarioSpec spec = ScenarioCatalog::instance().resolve(scenario);
  const aedb::AedbTuningProblem problem(spec.problem_config(scale));
  auto instance =
      AlgorithmRegistry::instance().create(algorithm, scale, evaluator);
  const moo::AlgorithmResult result = instance->run(problem, seed);
  RunRecord record;
  record.algorithm = algorithm;
  record.scenario = scenario;
  record.run_seed = seed;
  record.front = result.front;
  record.evaluations = result.evaluations;
  record.wall_seconds = result.wall_seconds;

  // Instrument the cell.  The registry lives for exactly one cell, so its
  // snapshot is the per-cell unit the campaign-wide fold (and the shard
  // manifests) aggregate.
  telemetry::Registry registry;
  registry.counter("cells").add(1);
  registry.counter("evaluations").add(result.evaluations);
  registry.counter("sim.runs").add(problem.scenario_runs());
  registry.counter("sim.events").add(problem.events_executed());
  // Per-fidelity-tier work split (tier 0 = "full").  Only tiers that did
  // work emit counters, so exact campaigns' snapshots gain nothing but the
  // renamed-from-totals full tier.
  for (std::size_t tier = 0; tier < problem.fidelity_levels(); ++tier) {
    const auto counts = problem.tier_counters(tier);
    if (counts.evaluations == 0 && counts.scenario_runs == 0) continue;
    const std::string& name =
        tier == 0 ? "full" : spec.fidelity_tiers[tier - 1].name;
    registry.counter("fidelity." + name + ".evals").add(counts.evaluations);
    registry.counter("fidelity." + name + ".sim_runs")
        .add(counts.scenario_runs);
    registry.counter("fidelity." + name + ".sim_events")
        .add(counts.events_executed);
  }
  registry.counter("front.points").add(record.front.size());
  registry.gauge("cell.wall_s").observe(result.wall_seconds);
  registry.gauge("scenario." + scenario + ".wall_s")
      .observe(result.wall_seconds);
  registry.histogram("front.size").observe(record.front.size());
  record.telemetry = registry.snapshot();
  return record;
}

}  // namespace

std::uint64_t cell_seed(const Scale& scale, const std::string& scenario,
                        std::size_t run) {
  return hash_combine(hash_string(scale.seed, scenario), run + 1);
}

std::vector<ExperimentPlan::Cell> ExperimentPlan::cells() const {
  std::vector<Cell> out;
  out.reserve(cell_count());
  for (const std::string& scenario : scenarios) {
    for (const std::string& algorithm : algorithms) {
      for (std::size_t run = 0; run < scale.runs; ++run) {
        Cell cell;
        cell.index = out.size();
        cell.algorithm = algorithm;
        cell.scenario = scenario;
        cell.run = run;
        cell.seed = cell_seed(scale, scenario, run);
        out.push_back(std::move(cell));
      }
    }
  }
  return out;
}

std::uint64_t ExperimentPlan::fingerprint() const {
  std::uint64_t key = hash_combine(scale.seed, scale.runs);
  key = hash_combine(key, scale.evals);
  key = hash_combine(key, scale.networks);
  key = hash_combine(key, scale.mls_populations);
  key = hash_combine(key, scale.mls_threads);
  // Every mode has its own store, "race" included: its fronts are
  // byte-identical to "full" by contract, but its cells carry
  // `fidelity.screen.*` counters a full run never computes, so a shared
  // store would replay telemetry that is no function of (plan, seed).
  key = hash_string(key, scale.fidelity);
  for (const std::string& name : algorithms) key = hash_string(key, name);
  for (const std::string& name : scenarios) {
    key = hash_string(key, name);
    // Hash the physics behind the key too: editing a catalog preset must
    // invalidate its cached indicators, not silently serve stale ones.
    if (const auto spec = ScenarioCatalog::instance().find(name)) {
      key = hash_combine(key, static_cast<std::uint64_t>(spec->devices_per_km2));
      for (const double field :
           {spec->area_width_m, spec->area_height_m, spec->min_speed_mps,
            spec->max_speed_mps, spec->mobility_epoch_s,
            spec->propagation.exponent, spec->propagation.reference_distance,
            spec->propagation.reference_loss_db, spec->shadowing_sigma_db,
            spec->shadowing_correlation_m, spec->phy.rx_sensitivity_dbm,
            spec->phy.cs_threshold_dbm, spec->phy.sinr_threshold_db,
            spec->phy.noise_floor_dbm, spec->phy.interference_floor_dbm,
            spec->phy.bitrate_bps, spec->phy.max_tx_power_dbm,
            spec->phy.min_tx_power_dbm, spec->beacon_period_s,
            spec->beacon_jitter_s, spec->bt_limit_s}) {
        key = hash_combine(key, std::bit_cast<std::uint64_t>(field));
      }
      for (const std::uint64_t field :
           {static_cast<std::uint64_t>(spec->mobility),
            static_cast<std::uint64_t>(spec->model_propagation_delay),
            static_cast<std::uint64_t>(spec->phy.preamble.ns()),
            static_cast<std::uint64_t>(spec->mac.difs.ns()),
            static_cast<std::uint64_t>(spec->mac.slot.ns()),
            static_cast<std::uint64_t>(spec->mac.cw),
            static_cast<std::uint64_t>(spec->mac.max_retries),
            static_cast<std::uint64_t>(spec->data_bytes),
            static_cast<std::uint64_t>(spec->beacon_bytes)}) {
        key = hash_combine(key, field);
      }
      // The fidelity ladder shapes forced-tier (and future screened)
      // results; editing it must invalidate cached approximate CSVs.
      key = hash_combine(key, spec->fidelity_tiers.size());
      for (const aedb::FidelityTier& tier : spec->fidelity_tiers) {
        key = hash_string(key, tier.name);
        key = hash_combine(key, std::bit_cast<std::uint64_t>(tier.window_s));
        key = hash_combine(key, static_cast<std::uint64_t>(tier.conservative));
      }
    }
  }
  return key;
}

std::vector<RunRecord> run_repeats(const std::string& algorithm,
                                   const std::string& scenario,
                                   const Scale& scale) {
  std::vector<RunRecord> records;
  records.reserve(scale.runs);
  for (std::size_t run = 0; run < scale.runs; ++run) {
    records.push_back(run_cell(algorithm, scenario,
                               cell_seed(scale, scenario, run), scale,
                               nullptr));
  }
  return records;
}

void validate_plan(const ExperimentPlan& plan) {
  // Duplicate names double-count: a repeated scenario key makes the
  // per-scenario reduction collect every matching record once per
  // duplicate, and a repeated algorithm runs identical-seed cells twice so
  // every statistic counts each run twice.  Reject both.
  const auto reject_duplicates = [](const std::vector<std::string>& names,
                                    const char* kind) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      for (std::size_t j = i + 1; j < names.size(); ++j) {
        if (names[i] == names[j]) {
          throw std::invalid_argument(std::string("duplicate ") + kind +
                                      " '" + names[i] +
                                      "' in the experiment plan");
        }
      }
    }
  };
  reject_duplicates(plan.scenarios, "scenario");
  reject_duplicates(plan.algorithms, "algorithm");
  // A fidelity mode must name "full", "race", or a ladder tier of *every*
  // swept scenario — a typo'd tier silently running the exact campaign
  // would defeat the point of asking for a cheap one.
  if (plan.scale.fidelity != "full" && plan.scale.fidelity != "race") {
    for (const std::string& scenario : plan.scenarios) {
      if (const auto spec = ScenarioCatalog::instance().find(scenario)) {
        (void)spec->fidelity_tier_index(plan.scale.fidelity);
      }
    }
  }
}

std::vector<moo::Solution> reference_front(
    const std::vector<RunRecord>& records, const std::string& scenario) {
  std::vector<std::vector<moo::Solution>> fronts;
  for (const RunRecord& record : records) {
    if (record.scenario == scenario) fronts.push_back(record.front);
  }
  return moo::merge_fronts(fronts);
}

std::vector<IndicatorSample> reduce_to_samples(
    const ExperimentPlan& plan, const std::vector<RunRecord>& records) {
  // The paper's protocol: reference front = non-dominated union of every
  // run of every algorithm on the scenario; all fronts normalised by its
  // bounds.  Serial and in grid order, so the output is deterministic.
  std::vector<IndicatorSample> samples;
  samples.reserve(records.size());
  for (const std::string& scenario : plan.scenarios) {
    const auto reference = reference_front(records, scenario);
    if (reference.empty()) {
      log_warn("empty reference front for scenario ", scenario);
      continue;
    }
    const moo::ObjectiveBounds bounds = moo::bounds_of(reference);
    const auto reference_norm = moo::normalize_front(reference, bounds);

    for (const RunRecord& record : records) {
      if (record.scenario != scenario) continue;
      IndicatorSample sample;
      sample.algorithm = record.algorithm;
      sample.scenario = scenario;
      sample.run_seed = record.run_seed;
      sample.front_size = record.front.size();
      if (!record.front.empty()) {
        const auto front = moo::normalize_front(record.front, bounds);
        sample.hypervolume = moo::hypervolume(front, moo::unit_reference(3));
        sample.igd = moo::paper_igd(front, reference_norm);
        sample.spread = moo::generalized_spread(front, reference_norm);
      }
      samples.push_back(std::move(sample));
    }
  }
  return samples;
}

std::string indicator_csv(const std::vector<IndicatorSample>& samples) {
  std::ostringstream out;
  out << "algorithm,scenario,run_seed,front_size,hypervolume,igd,spread\n";
  out.precision(17);
  for (const IndicatorSample& s : samples) {
    out << s.algorithm << ',' << s.scenario << ',' << s.run_seed << ','
        << s.front_size << ',' << s.hypervolume << ',' << s.igd << ','
        << s.spread << '\n';
  }
  return out.str();
}

std::string indicator_csv_path(const std::string& dir,
                               const ExperimentPlan& plan) {
  std::ostringstream path;
  path << dir << "/indicators_" << plan.scale.name << "_" << std::hex
       << plan.fingerprint() << ".csv";
  return path.str();
}

std::vector<RunRecord> ExperimentDriver::run_cells(
    const ExperimentPlan& plan,
    const std::vector<ExperimentPlan::Cell>& cells) const {
  return run_cells_into(plan, cells, nullptr);
}

std::vector<RunRecord> ExperimentDriver::run_cells_into(
    const ExperimentPlan& plan, const std::vector<ExperimentPlan::Cell>& cells,
    CampaignStore* store) const {
  // Each cell is seeded by (plan, scenario, run) alone, and each writes its
  // own slot, so the records vector is a pure function of the plan no
  // matter how many workers execute it.  One pool carries the cells, their
  // population batches and their MLS walks: at most `workers` tasks run at
  // once, the calling thread included.
  par::ThreadPool pool(options_.workers);
  const moo::EvaluationEngine engine(&pool);

  std::vector<RunRecord> records(cells.size());
  pool.parallel_for(cells.size(), [&](std::size_t i) {
    const ExperimentPlan::Cell& cell = cells[i];
    if (options_.verbose) {
      std::printf("[cell %3zu/%zu] %-18s on %-12s run %zu/%zu\n", i + 1,
                  cells.size(), cell.algorithm.c_str(),
                  cell.scenario.c_str(), cell.run + 1, plan.scale.runs);
      std::fflush(stdout);
    }
    double stall_ms = 0.0;
    if (fault::fire("cell.stall_ms", stall_ms) && stall_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(stall_ms));
    }
    records[i] = run_cell(cell.algorithm, cell.scenario, cell.seed,
                          plan.scale, &engine);
    if (store != nullptr) store->append(CellResult{cell.index, records[i]});
    if (options_.progress != nullptr) {
      options_.progress->cell_done(records[i].telemetry);
    }
  });
  return records;  // parallel_for returned: every cell has finished
}

telemetry::Snapshot merge_telemetry(const std::vector<RunRecord>& records) {
  telemetry::Snapshot merged;
  for (const RunRecord& record : records) merged.merge(record.telemetry);
  return merged;
}

std::vector<RunRecord> ExperimentDriver::complete(
    const ExperimentPlan& plan, const std::vector<ExperimentPlan::Cell>& cells,
    CampaignStore* store) const {
  constexpr std::size_t kNotHere = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> slot(plan.cell_count(), kNotHere);
  for (std::size_t i = 0; i < cells.size(); ++i) slot[cells[i].index] = i;
  std::vector<RunRecord> records(cells.size());
  std::vector<bool> stored(cells.size(), false);
  if (store != nullptr) {
    for (CellResult& cell : store->replayed()) {
      // Another shard's cell (a copied file): never replayed, and dropped
      // by the rewrite.
      const std::size_t at = slot[cell.index];
      if (at == kNotHere) continue;
      if (options_.progress != nullptr) {
        options_.progress->cell_done(cell.record.telemetry);
      }
      stored[at] = true;
      records[at] = std::move(cell.record);
    }
  }
  std::vector<ExperimentPlan::Cell> missing;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!stored[i]) missing.push_back(cells[i]);
  }
  if (options_.verbose && missing.size() < cells.size()) {
    std::printf("[store] replayed %zu of %zu cells from %s\n",
                cells.size() - missing.size(), cells.size(),
                store->path().c_str());
    std::fflush(stdout);
  }
  if (!missing.empty()) {
    auto fresh = run_cells_into(plan, missing, store);
    for (std::size_t i = 0; i < missing.size(); ++i) {
      records[slot[missing[i].index]] = std::move(fresh[i]);
    }
  }
  if (store != nullptr && store->writable() && !missing.empty()) {
    std::vector<CellResult> results;
    results.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      results.push_back(CellResult{cells[i].index, records[i]});
    }
    write_cell_log(store->path(), plan, results);
  }
  return records;
}

ExperimentResult ExperimentDriver::run(const ExperimentPlan& plan) const {
  validate_plan(plan);

  // Phase 1: replay the cells the store holds and run the missing ones on
  // the pool, appending each to the store as it completes (`complete`);
  // phase 2: the deterministic reduction to reference fronts + indicators
  // and the CSV.
  const auto cells = plan.cells();
  std::optional<CampaignStore> store;
  if (options_.use_cache) {
    store.emplace(cell_store_path(options_.cache_dir, plan), plan);
  }
  // Every replayed cell is a distinct plan cell (`read_cell_log`).
  const bool hit = (store ? store->replayed().size() : 0) == cells.size();
  if (options_.verbose) {
    std::printf("[plan] %zu algorithms x %zu scenarios x %zu runs = %zu "
                "cells\n",
                plan.algorithms.size(), plan.scenarios.size(),
                plan.scale.runs, cells.size());
    std::fflush(stdout);
  }
  ExperimentResult result = finish_campaign(
      plan, complete(plan, cells, store ? &*store : nullptr),
      options_.use_cache ? options_.cache_dir : "");
  result.from_cache = hit;
  return result;
}

std::vector<RunRecord> ExperimentDriver::run_shard(
    const ExperimentPlan& plan, std::size_t shard_index,
    std::size_t shard_count, const std::string& shard_dir) const {
  validate_plan(plan);
  const auto cells = cells_for_shard(plan, shard_index, shard_count);
  CampaignStore store(
      shard_log_path(shard_dir, plan, shard_index, shard_count), plan);
  if (options_.verbose) {
    std::printf("[shard %zu/%zu] %zu of %zu cells, kept in %s\n",
                shard_index, shard_count, cells.size(), plan.cell_count(),
                store.path().c_str());
    std::fflush(stdout);
  }
  return complete(plan, cells, &store);
}

std::vector<double> extract(const std::vector<IndicatorSample>& samples,
                            const std::string& algorithm,
                            const std::string& scenario,
                            double IndicatorSample::* member) {
  std::vector<double> out;
  for (const IndicatorSample& s : samples) {
    if (s.algorithm == algorithm && s.scenario == scenario) {
      out.push_back(s.*member);
    }
  }
  return out;
}

std::size_t dominance_count(const std::vector<moo::Solution>& a,
                            const std::vector<moo::Solution>& b) {
  std::size_t count = 0;
  for (const moo::Solution& target : b) {
    for (const moo::Solution& candidate : a) {
      if (moo::dominates(candidate, target)) {
        ++count;
        break;
      }
    }
  }
  return count;
}

}  // namespace aedbmls::expt
