#include "aedb/broadcast_stats.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "sim/core/simulator.hpp"

namespace aedbmls::aedb {

void BroadcastStatsCollector::begin(MessageId message, NodeId origin,
                                    sim::Time origination,
                                    std::size_t network_size) {
  AEDB_REQUIRE(origin_ == kInvalidNode, "collector reused for a second message");
  message_ = message;
  origin_ = origin;
  origination_ = origination;
  network_size_ = network_size;
  reserve(network_size);
  std::fill_n(received_.begin(), network_size, static_cast<unsigned char>(0));
}

void BroadcastStatsCollector::record_first_rx(NodeId node, sim::Time when) {
  if (node == origin_) return;  // the source trivially has the message
  AEDB_REQUIRE(node < network_size_, "reception from outside the network");
  if (received_[node] != 0) return;  // only the first reception counts
  received_[node] = 1;
  first_rx_time_[node] = when;
  ++coverage_;
  if (stop_simulator_ != nullptr &&
      (when - origination_).seconds() > stop_bt_beyond_s_) {
    stop_simulator_->stop();
  }
}

void BroadcastStatsCollector::record_data_tx(NodeId node, double tx_power_dbm,
                                             double duration_s) {
  if (node == origin_) return;  // the initial transmission is not a forwarding
  ++forwardings_;
  energy_dbm_sum_ += tx_power_dbm;
  energy_mj_ += dbm_to_mw(tx_power_dbm) * duration_s;  // mW*s == mJ
}

void BroadcastStatsCollector::record_drop_decision(NodeId node) {
  if (node == origin_) return;
  ++drop_decisions_;
}

void BroadcastStatsCollector::record_mac_drop(NodeId) { ++mac_drops_; }

BroadcastStats BroadcastStatsCollector::finalize(
    std::uint64_t total_collisions) const {
  BroadcastStats stats;
  stats.network_size = network_size_;
  stats.coverage = coverage_;
  stats.forwardings = forwardings_;
  stats.energy_dbm_sum = energy_dbm_sum_;
  stats.energy_mj = energy_mj_;
  stats.drop_decisions = drop_decisions_;
  stats.mac_drops = mac_drops_;
  stats.collisions = total_collisions;

  sim::Time last{};
  for (std::size_t node = 0; node < network_size_; ++node) {
    if (received_[node] != 0) last = std::max(last, first_rx_time_[node]);
  }
  stats.broadcast_time_s =
      coverage_ == 0 ? 0.0 : (last - origination_).seconds();
  return stats;
}

}  // namespace aedbmls::aedb
