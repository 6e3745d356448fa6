#pragma once

/// Pooled simulation state for repeated scenario evaluation.
///
/// The paper's evaluation grid re-runs the same fixed networks thousands of
/// times with different candidate configurations.  A `SimulationContext`
/// owns one complete simulation object graph — `Simulator`, `Network`
/// (nodes, radios, channel), the per-node applications and the statistics
/// collector — and *re-arms* it between runs instead of reconstructing it:
///
///  * **rebind** (hot path): the network configuration is unchanged, only
///    the AEDB candidate differs — the scheduler arena, node storage,
///    radios and installed apps are all reused; per-run heap allocations
///    drop to near zero;
///  * **reconfigure**: a different network configuration lands on this
///    context — the graph is re-armed in place, reusing node/device
///    storage when `node_count` matches;
///  * **build**: first use — the graph is constructed.
///
/// Determinism contract: a pooled/re-armed run produces a bitwise-identical
/// `ScenarioResult` to a fresh-construction run (regression-tested in
/// `test_scenario_pooling`).  Not thread-safe; use one context per thread
/// (see `ScenarioWorkspace`).

#include <cstdint>
#include <optional>
#include <vector>

#include "aedb/aedb_app.hpp"
#include "aedb/broadcast_stats.hpp"
#include "aedb/scenario.hpp"
#include "sim/apps/beacon_app.hpp"
#include "sim/core/simulator.hpp"
#include "sim/net/network.hpp"

namespace aedbmls::aedb {

class SimulationContext {
 public:
  SimulationContext() = default;
  SimulationContext(const SimulationContext&) = delete;
  SimulationContext& operator=(const SimulationContext&) = delete;

  /// Runs `config` once with `params` on this context's (re-armed) graph.
  [[nodiscard]] ScenarioResult run(const ScenarioConfig& config,
                                   const AedbParams& params);

  /// As above; `workspace` supplies cached topology placements on graph
  /// (re)builds (it is not used on the rebind hot path).
  [[nodiscard]] ScenarioResult run(const ScenarioConfig& config,
                                   const AedbParams& params,
                                   ScenarioWorkspace& workspace);

  /// How runs hit the reuse tiers (test/bench visibility).
  struct Stats {
    std::uint64_t builds = 0;        ///< graphs constructed from scratch
    std::uint64_t reconfigures = 0;  ///< re-armed for a different network config
    std::uint64_t rebinds = 0;       ///< hot path: same network, new candidate
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// Shared body of the `run` overloads (`workspace` may be null).
  [[nodiscard]] ScenarioResult run_impl(const ScenarioConfig& config,
                                        const AedbParams& params,
                                        ScenarioWorkspace* workspace);

  /// Ensures `network_` matches `config`; returns true when the graph was
  /// (re)built and the applications must be re-installed.
  bool bind_network(const sim::NetworkConfig& config, ScenarioWorkspace* workspace);

  /// Installs (or re-arms) beaconing + AEDB on every node and re-opens the
  /// statistics ledger.  Event-scheduling and RNG-draw order is identical
  /// in both modes — that is what keeps pooled runs bitwise-deterministic.
  void configure_apps(const ScenarioConfig& config, const AedbParams& params,
                      bool reinstall);

  sim::Simulator simulator_;
  std::optional<sim::Network> network_;
  BroadcastStatsCollector collector_;
  std::vector<sim::BeaconApp*> beacons_;  ///< installed apps, by node index
  std::vector<AedbApp*> apps_;            ///< installed apps, by node index
  double data_duration_s_ = 0.0;  ///< airtime of one data frame (energy metric)
  Stats stats_;
};

}  // namespace aedbmls::aedb
