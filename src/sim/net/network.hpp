#pragma once

/// Network builder: assembles a complete MANET (nodes with mobility, PHYs,
/// MACs, one shared channel) from a declarative configuration.
///
/// Topologies are pure functions of (seed, network_index): the paper
/// evaluates every candidate configuration on the *same* 10 networks, which
/// requires bit-identical placement and mobility across all evaluations and
/// threads (counter-based RNG streams).

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/core/simulator.hpp"
#include "sim/mobility/gauss_markov.hpp"
#include "sim/mobility/random_walk.hpp"
#include "sim/mobility/random_waypoint.hpp"
#include "sim/net/node.hpp"
#include "sim/net/wireless_channel.hpp"
#include "sim/propagation/log_distance.hpp"
#include "sim/propagation/shadowing.hpp"

namespace aedbmls::sim {

/// Mobility regimes available to scenarios.  The paper uses kRandomWalk
/// (Table II); the others support robustness studies of tuned
/// configurations.
enum class MobilityKind : std::uint8_t {
  kRandomWalk,
  kStatic,
  kRandomWaypoint,
  kGaussMarkov,
};

/// Scenario-level network parameters (Table II of the paper).
struct NetworkConfig {
  std::size_t node_count = 25;   ///< 25/50/75 <=> 100/200/300 devices per km^2
  double area_width = 500.0;     ///< metres
  double area_height = 500.0;    ///< metres
  double min_speed = 0.0;        ///< m/s
  double max_speed = 2.0;        ///< m/s
  Time mobility_epoch = aedbmls::sim::seconds(20);  ///< direction/speed change
  MobilityKind mobility = MobilityKind::kRandomWalk;

  LogDistancePropagation::Config propagation{};
  /// Log-normal shadowing on top of log-distance; 0 disables (the paper's
  /// setup has none).
  double shadowing_sigma_db = 0.0;
  double shadowing_correlation_m = 25.0;
  bool model_propagation_delay = true;
  PhyParams phy{};
  CsmaBroadcastMac::Params mac{};

  std::uint64_t seed = 1;          ///< master experiment seed
  std::uint64_t network_index = 0; ///< which of the fixed evaluation networks
};

/// Configuration equality over every field.  This is the pooling key:
/// equivalent configs may share a pooled network via `restart()`.
[[nodiscard]] bool equivalent(const NetworkConfig& a, const NetworkConfig& b) noexcept;

class Network {
 public:
  /// Builds nodes, channel and radios inside `simulator`.
  Network(Simulator& simulator, const NetworkConfig& config);

  /// Re-arms dynamic state for another run of the *same* configuration:
  /// PHY/MAC/channel counters, queues and RNG streams return to their
  /// just-built values; nodes, mobility models and installed applications
  /// are untouched.  The caller must have cleared the simulator's pending
  /// events first.  This is the pooled-evaluation hot path.
  void restart();

  /// What a run leaves in the network: the channel's state and every
  /// node's radio state.  Mobility and propagation are pure functions of
  /// time (their caches only speed up queries), so they keep nothing.
  struct RunState {
    WirelessChannel::RunState channel;
    std::vector<WirelessPhy::RunState> phys;      ///< by node index
    std::vector<CsmaBroadcastMac::RunState> macs;  ///< by node index
  };
  void save(RunState& into) const;
  /// Replaces the run state with `from`, which `save` took on this network.
  void restore(const RunState& from);

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] Node& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] const Node& node(std::size_t i) const { return *nodes_.at(i); }
  [[nodiscard]] WirelessChannel& channel() noexcept { return *channel_; }
  [[nodiscard]] const NetworkConfig& config() const noexcept { return config_; }

  /// Stream for scenario-level draws tied to this network (e.g. the source
  /// node choice), independent of node streams.
  [[nodiscard]] CounterRng scenario_stream() const noexcept {
    return CounterRng(config_.seed, {config_.network_index, 0x5ce7a6105u});
  }

 private:
  Simulator& simulator_;
  NetworkConfig config_;
  std::unique_ptr<LogDistancePropagation> base_propagation_;
  std::unique_ptr<ShadowedPropagation> shadowing_;  ///< optional decorator
  std::unique_ptr<WirelessChannel> channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace aedbmls::sim
