#include "aedb/tuning_problem.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"

namespace aedbmls::aedb {
namespace {

/// One reusable workspace per evaluating thread.  Its contexts are keyed by
/// the whole network configuration, so sharing the workspace across
/// problem instances (and problem lifetimes) is safe.
ScenarioWorkspace& thread_workspace() {
  thread_local ScenarioWorkspace workspace;
  return workspace;
}

}  // namespace

AedbTuningProblem::AedbTuningProblem(Config config) : config_(config) {
  AEDB_REQUIRE(config_.network_count >= 1, "need at least one network");
  config_.scenario.network.node_count =
      nodes_for_density(config_.devices_per_km2,
                        config_.scenario.network.area_width,
                        config_.scenario.network.area_height);
  config_.scenario.network.seed = config_.seed;
  for (const FidelityTier& tier : config_.tiers) {
    AEDB_REQUIRE(!tier.name.empty(), "fidelity tier needs a name");
    AEDB_REQUIRE(tier.window_s >= 0.0, "fidelity window must be >= 0");
  }
  AEDB_REQUIRE(config_.forced_tier <= config_.tiers.size(),
               "forced_tier out of ladder range");
  tier_counts_ = std::vector<TierAtomics>(1 + config_.tiers.size());
}

std::size_t AedbTuningProblem::dimensions() const {
  return AedbParams::kDimensions;
}

std::pair<double, double> AedbTuningProblem::bounds(std::size_t dim) const {
  AEDB_REQUIRE(dim < AedbParams::kDimensions, "bounds index out of range");
  return AedbParams::domain()[dim];
}

std::size_t AedbTuningProblem::fidelity_levels() const {
  return 1 + config_.tiers.size();
}

std::size_t AedbTuningProblem::screening_tier() const {
  for (std::size_t t = 0; t < config_.tiers.size(); ++t) {
    if (config_.tiers[t].conservative) return t + 1;
  }
  return 0;
}

std::size_t AedbTuningProblem::effective_tier(std::size_t requested) const {
  AEDB_REQUIRE(requested < fidelity_levels(), "fidelity tier out of range");
  return requested != 0 ? requested : config_.forced_tier;
}

AedbTuningProblem::Detail AedbTuningProblem::detail_at(
    const AedbParams& params, ScenarioWorkspace& workspace, std::size_t tier,
    bool allow_reject_stop) const {
  ScenarioConfig scenario = config_.scenario;
  bool conservative = false;
  if (tier != 0) {
    const FidelityTier& spec = config_.tiers[tier - 1];
    conservative = spec.conservative;
    if (spec.window_s > 0.0) {
      // Never run past the full horizon: the conservative lower-bound
      // argument needs the truncated run to be a prefix of the full one.
      scenario.end_at = std::min(
          scenario.end_at, scenario.broadcast_at + sim::seconds_d(spec.window_s));
    }
  }
  // A conservative screen only needs to *prove* infeasibility: each
  // network's truncated broadcast time lower-bounds its full-run value and
  // unrun networks contribute >= 0, so once the partial sum alone pushes
  // the full-denominator mean over the limit we can stop simulating.
  const double bt_reject_sum =
      config_.bt_limit_s * static_cast<double>(config_.network_count);

  Detail detail;
  std::uint64_t events = 0;
  std::size_t runs = 0;
  for (std::size_t net = 0; net < config_.network_count; ++net) {
    scenario.network.network_index = net;
    if (conservative && allow_reject_stop) {
      // The verdict is sealed the moment one reception lands beyond this
      // network's remaining rejection budget; stopping there is a further
      // truncation, so the lower-bound argument is untouched — the run is
      // just cheaper.
      scenario.stop_when_bt_exceeds_s =
          bt_reject_sum - detail.mean_broadcast_time_s;
    }
    const ScenarioResult run = run_scenario(scenario, params, workspace);
    ++runs;
    events += run.events_executed;
    detail.mean_energy_dbm += run.stats.energy_dbm_sum;
    detail.mean_coverage += static_cast<double>(run.stats.coverage);
    detail.mean_forwardings += static_cast<double>(run.stats.forwardings);
    detail.mean_broadcast_time_s += run.stats.broadcast_time_s;
    detail.mean_energy_mj += run.stats.energy_mj;
    if (conservative && detail.mean_broadcast_time_s > bt_reject_sum) break;
  }
  tier_counts_[tier].scenario_runs.fetch_add(runs, std::memory_order_relaxed);
  tier_counts_[tier].events_executed.fetch_add(events,
                                               std::memory_order_relaxed);
  const double n = static_cast<double>(runs);
  detail.mean_energy_dbm /= n;
  detail.mean_coverage /= n;
  detail.mean_forwardings /= n;
  // Conservative tiers report the *lower bound* of the full-fidelity mean:
  // the partial truncated sum over the full ensemble size.
  detail.mean_broadcast_time_s /=
      conservative ? static_cast<double>(config_.network_count) : n;
  detail.mean_energy_mj /= n;
  return detail;
}

AedbTuningProblem::Detail AedbTuningProblem::evaluate_detail(
    const AedbParams& params) const {
  return detail_at(params, thread_workspace(), 0, false);
}

AedbTuningProblem::Detail AedbTuningProblem::evaluate_detail(
    const AedbParams& params, ScenarioWorkspace& workspace) const {
  return detail_at(params, workspace, 0, false);
}

moo::Problem::Result AedbTuningProblem::evaluate_with(
    ScenarioWorkspace& workspace, const std::vector<double>& x,
    std::size_t tier, bool explicit_tier) const {
  const AedbParams params = AedbParams::from_vector(x);
  const Detail detail = detail_at(params, workspace, tier, explicit_tier);
  tier_counts_[tier].evaluations.fetch_add(1, std::memory_order_relaxed);

  Result result;
  result.objectives = {detail.mean_energy_dbm, -detail.mean_coverage,
                       detail.mean_forwardings};
  result.constraint_violation =
      std::max(0.0, detail.mean_broadcast_time_s - config_.bt_limit_s);
  return result;
}

moo::Problem::Result AedbTuningProblem::evaluate(
    const std::vector<double>& x) const {
  return evaluate_with(thread_workspace(), x, effective_tier(0), false);
}

moo::Problem::Result AedbTuningProblem::evaluate_at(
    const std::vector<double>& x, std::size_t tier) const {
  return evaluate_with(thread_workspace(), x, effective_tier(tier),
                       tier != 0);
}

void AedbTuningProblem::evaluate_batch(std::span<moo::Solution> batch) const {
  // Acquire the worker's pooled state once for the whole batch: every
  // run_scenario in it is then served by the workspace's pooled
  // `SimulationContext`s (reused simulators, networks and event arenas)
  // instead of reconstructing the object graph per evaluation.  Tiers may
  // be mixed freely — truncated-window tiers share the full tier's pooled
  // contexts (same network configuration), so screening piggybacks on the
  // warm graphs.
  ScenarioWorkspace& workspace = thread_workspace();
  for (moo::Solution& s : batch) {
    if (s.evaluated) continue;
    const std::size_t tier = effective_tier(s.fidelity);
    store_result(s, evaluate_with(workspace, s.x, tier, s.fidelity != 0));
    s.fidelity = static_cast<std::uint32_t>(tier);
  }
}

std::uint64_t AedbTuningProblem::scenario_runs() const noexcept {
  std::uint64_t total = 0;
  for (const TierAtomics& t : tier_counts_) {
    total += t.scenario_runs.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t AedbTuningProblem::events_executed() const noexcept {
  std::uint64_t total = 0;
  for (const TierAtomics& t : tier_counts_) {
    total += t.events_executed.load(std::memory_order_relaxed);
  }
  return total;
}

AedbTuningProblem::TierCounters AedbTuningProblem::tier_counters(
    std::size_t tier) const {
  AEDB_REQUIRE(tier < tier_counts_.size(), "fidelity tier out of range");
  const TierAtomics& t = tier_counts_[tier];
  return TierCounters{t.evaluations.load(std::memory_order_relaxed),
                      t.scenario_runs.load(std::memory_order_relaxed),
                      t.events_executed.load(std::memory_order_relaxed)};
}

std::string AedbTuningProblem::name() const {
  std::ostringstream os;
  os << "AEDB-" << config_.devices_per_km2 << "dev";
  return os.str();
}

}  // namespace aedbmls::aedb
