#pragma once

/// Metrics of one broadcast dissemination (§III-A of the paper).
///
/// * coverage        — devices (excluding the source) that received the
///                     message at least once;
/// * forwardings     — devices that re-transmitted it (source excluded);
/// * energy_dbm_sum  — sum of the forwarding transmission powers in dBm.
///                     This is the paper's "energy used" axis: its Pareto
///                     plots span negative values, which only a dBm sum
///                     produces (EXPERIMENTS.md "Deviations");
/// * energy_mj       — physical radiated energy (mW·s) of the forwardings,
///                     reported alongside as the linear-scale alternative;
/// * broadcast_time  — origination to the last first-reception (0 when
///                     nobody receives: no dissemination happened).

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/core/time.hpp"

namespace aedbmls::sim {
class Simulator;
}  // namespace aedbmls::sim

namespace aedbmls::aedb {

struct BroadcastStats {
  std::size_t network_size = 0;  ///< total devices incl. source
  std::size_t coverage = 0;      ///< receivers, excluding the source
  std::size_t forwardings = 0;   ///< re-transmitting devices
  double energy_dbm_sum = 0.0;   ///< paper's energy metric
  double energy_mj = 0.0;        ///< physical energy of forwardings
  double broadcast_time_s = 0.0; ///< dissemination latency

  // Diagnostics (not objectives):
  std::uint64_t collisions = 0;      ///< SINR-failed receptions network-wide
  std::uint64_t mac_drops = 0;       ///< frames dropped by CCA exhaustion
  std::size_t drop_decisions = 0;    ///< nodes that chose not to forward

  /// Coverage as a fraction of potential receivers.
  [[nodiscard]] double coverage_fraction() const noexcept {
    return network_size > 1
               ? static_cast<double>(coverage) / static_cast<double>(network_size - 1)
               : 0.0;
  }
};

/// Per-simulation sink the AEDB applications report into.  Single-threaded
/// (one collector per Simulator instance).
///
/// The first-reception ledger is a flat NodeId-indexed array (node ids are
/// dense, starting at zero), sized by `begin()` and retained across runs:
/// a pooled context's per-run reset is an O(n) fill with no heap traffic,
/// and summary iteration walks the array in NodeId order — deterministic
/// by construction.
class BroadcastStatsCollector {
 public:
  /// Returns the collector to its just-constructed state so a pooled
  /// context can reuse it for the next run (`begin` requires a fresh
  /// ledger).  Ledger storage is retained; `begin()` re-fills it.
  void reset() noexcept {
    message_ = 0;
    origin_ = kInvalidNode;
    origination_ = sim::Time{};
    network_size_ = 0;
    coverage_ = 0;
    forwardings_ = 0;
    energy_dbm_sum_ = 0.0;
    energy_mj_ = 0.0;
    drop_decisions_ = 0;
    mac_drops_ = 0;
    stop_simulator_ = nullptr;
    stop_bt_beyond_s_ = 0.0;
  }

  /// Arms the infeasibility shortcut: a first reception later than
  /// `bt_beyond_s` after origination stops `simulator` — the caller's
  /// rejection test is already decided at that point (see
  /// `ScenarioConfig::stop_when_bt_exceeds_s`).  nullptr disarms (the
  /// default state; `reset()` also disarms).
  void arm_infeasibility_stop(sim::Simulator* simulator,
                              double bt_beyond_s) noexcept {
    stop_simulator_ = simulator;
    stop_bt_beyond_s_ = bt_beyond_s;
  }

  /// Preallocates the first-reception ledger for `network_size` nodes so
  /// `begin()` never has to grow it on the hot path.
  void reserve(std::size_t network_size) {
    if (network_size > received_.size()) {
      received_.resize(network_size);
      first_rx_time_.resize(network_size);
    }
  }

  /// Declares the broadcast about to happen.
  void begin(MessageId message, NodeId origin, sim::Time origination,
             std::size_t network_size);

  /// A node decoded the message for the first time.
  void record_first_rx(NodeId node, sim::Time when);

  /// A node's MAC put a data frame on the air.
  void record_data_tx(NodeId node, double tx_power_dbm, double duration_s);

  /// A node's protocol decided to drop (not forward).
  void record_drop_decision(NodeId node);

  /// A node's MAC gave up on a data frame (CCA exhaustion).
  void record_mac_drop(NodeId node);

  /// True when `node` already counted a first reception.
  [[nodiscard]] bool has_received(NodeId node) const {
    return node < network_size_ && received_[node] != 0;
  }

  /// First-reception time of `node`; nullopt when it never received.
  [[nodiscard]] std::optional<sim::Time> first_rx_time(NodeId node) const {
    if (!has_received(node)) return std::nullopt;
    return first_rx_time_[node];
  }

  [[nodiscard]] NodeId origin() const noexcept { return origin_; }
  [[nodiscard]] MessageId message() const noexcept { return message_; }

  /// Per-node first-reception times in NodeId order (traces and examples).
  [[nodiscard]] std::vector<std::pair<NodeId, sim::Time>> first_receptions()
      const;

  /// Closes the ledger; `total_collisions` comes from summing PHY counters.
  [[nodiscard]] BroadcastStats finalize(std::uint64_t total_collisions) const;

 private:
  MessageId message_ = 0;
  NodeId origin_ = kInvalidNode;
  sim::Time origination_{};
  std::size_t network_size_ = 0;
  std::vector<unsigned char> received_;    ///< NodeId-indexed ledger flags
  std::vector<sim::Time> first_rx_time_;   ///< valid where received_[i] != 0
  std::size_t coverage_ = 0;               ///< receivers counted so far
  std::size_t forwardings_ = 0;
  double energy_dbm_sum_ = 0.0;
  double energy_mj_ = 0.0;
  std::size_t drop_decisions_ = 0;
  std::uint64_t mac_drops_ = 0;
  sim::Simulator* stop_simulator_ = nullptr;  ///< armed infeasibility stop
  double stop_bt_beyond_s_ = 0.0;
};

}  // namespace aedbmls::aedb
