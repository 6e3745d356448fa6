#pragma once

/// One complete evaluation run: build a network, warm up beacons, broadcast
/// once with a given AEDB configuration, collect the metrics.
///
/// Timeline (paper §V): the topology "evolves" for 30 s (free here — mobility
/// is closed-form), beacons start shortly before so neighbor tables are warm,
/// the broadcast starts at t = 30 s, and the simulation ends at t = 40 s.

#include <cstdint>
#include <memory>
#include <vector>

#include "aedb/aedb_app.hpp"
#include "aedb/aedb_params.hpp"
#include "aedb/broadcast_stats.hpp"
#include "sim/net/network.hpp"

namespace aedbmls::aedb {

struct ScenarioConfig {
  sim::NetworkConfig network{};       ///< topology, radio, mobility
  sim::Time beacon_start = sim::seconds(27);  ///< >= 2 beacon rounds of warm-up
  sim::Time beacon_period = sim::seconds(1);  ///< Table II: beacons every 1 s
  sim::Time beacon_jitter = sim::milliseconds(10);  ///< per-beacon random jitter
  sim::Time broadcast_at = sim::seconds(30);  ///< dissemination start
  sim::Time end_at = sim::seconds(40);        ///< simulation stop
  double default_tx_dbm = 16.02;      ///< Table II default transmission power
  std::uint32_t data_bytes = 256;     ///< broadcast payload size
  std::uint32_t beacon_bytes = 50;    ///< hello-beacon frame size
  bool random_source = true;          ///< source drawn per network; else node 0
  /// When >= 0: stop the simulation as soon as any first reception lands
  /// more than this many seconds after origination.  A conservative
  /// screen's rejection test is decided the moment one reception proves
  /// the broadcast time exceeds its remaining budget — the rest of the
  /// window cannot change the verdict, only make the run more expensive.
  /// Stopping is a further truncation, so the screen's lower-bound
  /// argument is untouched.  < 0 (the default) runs to `end_at`.
  double stop_when_bt_exceeds_s = -1.0;
};

/// Node count for `devices_per_km2` on the arena (Table II's 500 m x 500 m
/// by default).
[[nodiscard]] std::size_t nodes_for_density(int devices_per_km2,
                                            double area_width = 500.0,
                                            double area_height = 500.0);

/// The paper's scenario for a given density (100, 200 or 300 devices/km^2)
/// and evaluation-network index.
[[nodiscard]] ScenarioConfig make_paper_scenario(int devices_per_km2,
                                                 std::uint64_t seed,
                                                 std::uint64_t network_index);

/// Outcome of one scenario run.
struct ScenarioResult {
  BroadcastStats stats;
  std::uint64_t events_executed = 0;  ///< simulator throughput metric
};

class SimulationContext;

/// Per-worker reusable evaluation state.  The paper's setup judges every
/// candidate configuration on the *same* fixed networks, so a worker thread
/// keeps one pooled `SimulationContext` (a complete simulation object
/// graph) per network configuration, and `run_scenario` rebinds an existing
/// graph instead of reconstructing `Simulator`/`Network`/apps on every call.
///
/// The pool is recency-ordered (move-to-front on hit, evict from the back),
/// which makes the common repeated-lookup pattern O(1).  Not thread-safe;
/// use one instance per thread (see `AedbTuningProblem::evaluate_batch`).
class ScenarioWorkspace {
 public:
  ScenarioWorkspace();
  ~ScenarioWorkspace();
  ScenarioWorkspace(const ScenarioWorkspace&) = delete;
  ScenarioWorkspace& operator=(const ScenarioWorkspace&) = delete;

  /// The pooled simulation context for network configurations
  /// `sim::equivalent` to `net`, built on first use.  The reference stays
  /// valid until the next call (LRU eviction).
  [[nodiscard]] SimulationContext& context_for(const sim::NetworkConfig& net);

  struct Stats {
    std::uint64_t context_hits = 0;    ///< runs served by a pooled context
    std::uint64_t context_misses = 0;  ///< contexts built
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct PooledContext {
    sim::NetworkConfig network;  ///< the configuration it was built for
    std::unique_ptr<SimulationContext> context;
  };
  /// Contexts hold full object graphs; one problem's 10 fixed evaluation
  /// networks fit with room to spare.
  static constexpr std::size_t kContextCapacity = 16;

  std::vector<PooledContext> contexts_;  ///< recency-ordered, front = MRU
  Stats stats_{};
};

/// Runs the scenario once with the given protocol configuration on a fresh
/// (stack-built) `SimulationContext`.  Deterministic: identical
/// (config, params) always yields identical stats, with or without a
/// workspace — pooled runs are bitwise-identical to fresh-construction
/// runs.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& config,
                                          const AedbParams& params);

/// As above, but served by one of `workspace`'s pooled `SimulationContext`s
/// (reused object graph, recycled event arena).
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& config,
                                          const AedbParams& params,
                                          ScenarioWorkspace& workspace);

}  // namespace aedbmls::aedb
