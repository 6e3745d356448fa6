#pragma once

/// Pooled simulation state for repeated scenario evaluation.
///
/// The paper's evaluation grid re-runs the same fixed networks thousands of
/// times with different candidate configurations.  A `SimulationContext`
/// owns one complete simulation object graph — `Simulator`, `Network`
/// (nodes, radios, channel), the per-node applications and the statistics
/// collector — and *re-arms* it between runs instead of reconstructing it:
///
///  * **rebind** (hot path): the network configuration is
///    `sim::equivalent` to the last run's, only the AEDB candidate differs —
///    the scheduler arena, node storage, radios and installed apps are all
///    reused; per-run heap allocations drop to near zero;
///  * **build**: first use, or a different network configuration — the
///    graph is constructed anew (the scheduler arena is kept).
///
/// A rebind also skips the beacon warm-up when it can.  Nothing before the
/// broadcast event reads an AEDB parameter, `end_at` or the early stop, so
/// the run state when the broadcast fires depends only on the network and
/// on the beacon settings and `broadcast_at` (the *warm-up key*).  Each run
/// that simulates its warm-up captures that state when the broadcast event
/// fires, replacing the context's one snapshot; a later rebind with the
/// same key restores it at the broadcast instead of simulating up to it
/// (docs/DETERMINISM.md, "Warm-up restore").
///
/// Determinism contract: a pooled run produces a bitwise-identical
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

  /// How runs hit the reuse tiers (test/bench visibility).
  struct Stats {
    std::uint64_t builds = 0;    ///< graphs constructed
    std::uint64_t rebinds = 0;   ///< hot path: same network, new candidate
    std::uint64_t restores = 0;  ///< rebinds that restored the warm-up
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// Ensures `network_` matches `config`; returns true when the graph was
  /// built and the applications must be installed.
  bool bind_network(const sim::NetworkConfig& config);

  /// Installs (or re-arms) beaconing + AEDB on every node and re-opens the
  /// statistics ledger.  Event-scheduling and RNG-draw order is identical
  /// in both modes — that is what keeps pooled runs bitwise-deterministic.
  /// A re-arm that restores the warm-up does not start the beacons: their
  /// state comes with the snapshot.
  void configure_apps(const ScenarioConfig& config, const AedbParams& params,
                      bool reinstall, bool start_beacons);

  /// The run state when the broadcast event fires, under its warm-up key.
  struct Warmup {
    bool valid = false;             ///< taken on the current graph
    sim::BeaconApp::Config beacon;  ///< key: the beacon settings...
    sim::Time broadcast_at;         ///< ...and the broadcast time
    sim::Simulator::RunState simulator;
    sim::Network::RunState network;
    std::vector<sim::BeaconApp::RunState> beacons;  ///< by node index
  };
  void save_warmup();
  void restore_warmup();

  sim::Simulator simulator_;
  std::optional<sim::Network> network_;
  BroadcastStatsCollector collector_;
  std::vector<sim::BeaconApp*> beacons_;  ///< installed apps, by node index
  std::vector<AedbApp*> apps_;            ///< installed apps, by node index
  double data_duration_s_ = 0.0;  ///< airtime of one data frame (energy metric)
  Warmup warmup_;
  Stats stats_;
};

}  // namespace aedbmls::aedb
