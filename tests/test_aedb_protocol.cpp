#include "aedb/aedb_app.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "aedb/broadcast_stats.hpp"
#include "sim/core/simulator.hpp"
#include "sim/net/net_device.hpp"
#include "sim/net/network.hpp"
#include "sim/propagation/log_distance.hpp"

namespace aedbmls::aedb {
namespace {

using sim::Frame;
using sim::FrameKind;
using sim::Vec2;

/// Hand-built static topology: nodes at exact positions, beacons disabled
/// (tables are filled manually), AEDB installed everywhere.
/// With the default radio (16.02 dBm, log-distance exp 3):
///   rx(d) = 16.02 - 46.6777 - 30*log10(d)  =>  rx(30) ~ -74.9,
///   rx(100) ~ -90.7, rx(120) ~ -93.0, rx(140) ~ -95.0 (edge).
class AedbWorld {
 public:
  explicit AedbWorld(AedbParams params) : params_(params) {}

  std::size_t add_node(Vec2 position) {
    const auto id = static_cast<NodeId>(nodes_.size());
    auto node = std::make_unique<sim::Node>(
        simulator_, id, std::make_unique<sim::ConstantPositionMobility>(position));
    auto device = std::make_unique<sim::NetDevice>(
        simulator_, id, sim::PhyParams{}, sim::CsmaBroadcastMac::Params{},
        900 + id);
    channel_.attach(&device->phy(), &node->mobility());
    node->attach_device(std::move(device));
    // Same stats wiring as aedb::run_scenario: energy is accounted at the
    // MAC when the frame actually goes to air.
    const double duration_s =
        node->device().phy().frame_duration(256).seconds();
    node->device().set_sent_callback(
        [this, id, duration_s](const sim::Frame& frame, double tx_dbm) {
          if (frame.kind == sim::FrameKind::kData) {
            collector_.record_data_tx(id, tx_dbm, duration_s);
          }
        });

    sim::BeaconApp::Config beacon_config;
    beacon_config.start_at = sim::seconds(100000);  // never fires in tests
    auto& beacons = node->add_app<sim::BeaconApp>(beacon_config,
                                                  CounterRng(3000 + id));
    AedbApp::Config app_config;
    app_config.params = params_;
    auto& app = node->add_app<AedbApp>(app_config, beacons, collector_,
                                       CounterRng(4000 + id));
    beacons_.push_back(&beacons);
    apps_.push_back(&app);
    nodes_.push_back(std::move(node));
    return id;
  }

  /// Declares `source` as the broadcast origin and transmits.
  void originate(std::size_t source) {
    collector_.begin(1, static_cast<NodeId>(source), simulator_.now(),
                     nodes_.size());
    apps_[source]->originate(1);
  }

  /// Seeds a neighbor-table entry as if a beacon at default power arrived.
  void learn_neighbor(std::size_t node, std::size_t neighbor, double rx_dbm) {
    beacons_[node]->neighbor_table().update(static_cast<NodeId>(neighbor),
                                            rx_dbm, 16.02, simulator_.now());
  }

  /// Feeds a synthetic data-frame reception directly to a node's AEDB app.
  void inject_rx(std::size_t node, NodeId from, double rx_dbm) {
    Frame frame;
    frame.kind = FrameKind::kData;
    frame.sender = from;
    frame.message_id = 1;
    frame.size_bytes = 256;
    frame.tx_power_dbm = 16.02;
    apps_[node]->on_receive(frame, rx_dbm);
  }

  sim::Simulator& simulator() { return simulator_; }
  AedbApp& app(std::size_t i) { return *apps_[i]; }
  BroadcastStatsCollector& collector() { return collector_; }
  std::size_t size() const { return nodes_.size(); }

 private:
  AedbParams params_;
  sim::Simulator simulator_;
  sim::LogDistancePropagation propagation_{};
  sim::WirelessChannel channel_{simulator_, propagation_, true};
  BroadcastStatsCollector collector_;
  std::vector<std::unique_ptr<sim::Node>> nodes_;
  std::vector<sim::BeaconApp*> beacons_;
  std::vector<AedbApp*> apps_;
};

AedbParams fixed_delay_params(double delay_s = 0.2, double border = -85.0) {
  AedbParams params;
  params.min_delay_s = delay_s;
  params.max_delay_s = delay_s;  // deterministic wait
  params.border_threshold_dbm = border;
  params.margin_threshold_db = 1.0;
  params.neighbors_threshold = 10.0;
  return params;
}

TEST(AedbProtocol, NodeInsideBorderDropsImmediately) {
  AedbWorld world(fixed_delay_params());
  world.add_node({0.0, 0.0});
  world.add_node({30.0, 0.0});  // rx ~ -74.9 > -85: too close, must drop
  world.originate(0);
  world.simulator().run_until(sim::seconds(60));
  EXPECT_EQ(world.app(1).counters().drops_on_arrival, 1u);
  EXPECT_EQ(world.app(1).counters().forwards, 0u);
  const BroadcastStats stats = world.collector().finalize(0);
  EXPECT_EQ(stats.coverage, 1u);       // received, even though dropped
  EXPECT_EQ(stats.forwardings, 0u);
  EXPECT_EQ(stats.drop_decisions, 1u);
}

TEST(AedbProtocol, NodeInForwardingAreaForwardsAfterDelay) {
  AedbWorld world(fixed_delay_params(0.2));
  world.add_node({0.0, 0.0});
  world.add_node({100.0, 0.0});  // rx ~ -90.7 < -85: potential forwarder
  world.originate(0);
  world.simulator().run_until(sim::seconds(60));
  EXPECT_EQ(world.app(1).counters().forwards, 1u);
  const BroadcastStats stats = world.collector().finalize(0);
  EXPECT_EQ(stats.forwardings, 1u);
  // The forwarding happened after the fixed 0.2 s delay, so the broadcast
  // is still "in flight" at 0.2 s + airtime; bt reflects first receptions
  // only (node 1 got it right away).
  EXPECT_GT(stats.broadcast_time_s, 0.0);
  EXPECT_LT(stats.broadcast_time_s, 0.2);
}

TEST(AedbProtocol, StrongerDuplicateDuringWaitCancelsForwarding) {
  AedbWorld world(fixed_delay_params(1.0));
  world.add_node({0.0, 0.0});
  world.add_node({100.0, 0.0});
  world.originate(0);
  // Halfway through the wait, a copy from a much closer forwarder arrives.
  world.simulator().schedule(sim::seconds_d(0.5),
                             [&] { world.inject_rx(1, 7, -60.0); });
  world.simulator().run_until(sim::seconds(60));
  EXPECT_EQ(world.app(1).counters().forwards, 0u);
  EXPECT_EQ(world.app(1).counters().drops_after_wait, 1u);
  EXPECT_EQ(world.app(1).counters().duplicate_receptions, 1u);
}

TEST(AedbProtocol, WeakerDuplicateDoesNotCancel) {
  AedbWorld world(fixed_delay_params(1.0));
  world.add_node({0.0, 0.0});
  world.add_node({100.0, 0.0});
  world.originate(0);
  world.simulator().schedule(sim::seconds_d(0.5),
                             [&] { world.inject_rx(1, 7, -94.0); });
  world.simulator().run_until(sim::seconds(60));
  EXPECT_EQ(world.app(1).counters().forwards, 1u);
  EXPECT_EQ(world.app(1).counters().drops_after_wait, 0u);
}

TEST(AedbProtocol, SparseModeReachesFurthestUnheardNeighbor) {
  AedbParams params = fixed_delay_params();
  params.neighbors_threshold = 10.0;  // stay sparse
  AedbWorld world(params);
  world.add_node({0.0, 0.0});
  const std::size_t relay = world.add_node({100.0, 0.0});
  // Relay knows: source (heard the message from it) and one far neighbor.
  world.learn_neighbor(relay, 0, -90.7);
  world.learn_neighbor(relay, 2, -93.0);  // path loss 109.02 dB
  const double power = world.app(relay).compute_forward_power({0});
  // Reach the far neighbor at sensitivity (-95) + margin (1):
  // tx = 109.02 - 94 = 15.02 dBm.
  EXPECT_NEAR(power, 109.02 - 95.0 + 1.0, 1e-9);
  EXPECT_EQ(world.app(relay).counters().sparse_mode_forwards, 1u);
}

TEST(AedbProtocol, DenseModeShrinksRangeToBorderNeighbor) {
  AedbParams params = fixed_delay_params(0.2, -85.0);
  params.neighbors_threshold = 2.0;  // dense as soon as 3 are in the area
  AedbWorld world(params);
  world.add_node({0.0, 0.0});
  const std::size_t relay = world.add_node({100.0, 0.0});
  // Forwarding area (rx <= -85): three far neighbors; -86 is the closest to
  // the border from below => it becomes the power target.
  world.learn_neighbor(relay, 2, -94.0);
  world.learn_neighbor(relay, 3, -90.0);
  world.learn_neighbor(relay, 4, -86.0);  // path loss 102.02 dB
  world.learn_neighbor(relay, 5, -70.0);  // inside border: not in the area
  const double power = world.app(relay).compute_forward_power({0});
  EXPECT_NEAR(power, 102.02 - 95.0 + 1.0, 1e-9);
  EXPECT_EQ(world.app(relay).counters().dense_mode_forwards, 1u);
}

TEST(AedbProtocol, NoNeighborKnowledgeFallsBackToDefaultPower) {
  AedbWorld world(fixed_delay_params());
  world.add_node({0.0, 0.0});
  const std::size_t relay = world.add_node({100.0, 0.0});
  EXPECT_DOUBLE_EQ(world.app(relay).compute_forward_power({0}), 16.02);
}

TEST(AedbProtocol, MarginRaisesForwardPower) {
  AedbParams low = fixed_delay_params();
  low.margin_threshold_db = 0.0;
  AedbParams high = fixed_delay_params();
  high.margin_threshold_db = 3.0;

  AedbWorld world_low(low);
  world_low.add_node({0.0, 0.0});
  const std::size_t r1 = world_low.add_node({100.0, 0.0});
  world_low.learn_neighbor(r1, 2, -93.0);

  AedbWorld world_high(high);
  world_high.add_node({0.0, 0.0});
  const std::size_t r2 = world_high.add_node({100.0, 0.0});
  world_high.learn_neighbor(r2, 2, -93.0);

  EXPECT_NEAR(world_high.app(r2).compute_forward_power({0}) -
                  world_low.app(r1).compute_forward_power({0}),
              3.0, 1e-9);
}

TEST(AedbProtocol, SourceIgnoresEchoOfOwnMessage) {
  AedbWorld world(fixed_delay_params(0.05));
  world.add_node({0.0, 0.0});
  world.add_node({100.0, 0.0});
  world.originate(0);
  world.simulator().run_until(sim::seconds(60));
  // Node 1 forwarded; the source heard the echo but must not re-process.
  EXPECT_EQ(world.app(0).counters().first_receptions, 0u);
  EXPECT_EQ(world.app(0).counters().forwards, 0u);
  const BroadcastStats stats = world.collector().finalize(0);
  EXPECT_EQ(stats.coverage, 1u);  // source not counted
}

TEST(AedbProtocol, MultiHopChainCoversAllAndCountsMetrics) {
  AedbParams params = fixed_delay_params(0.1);
  AedbWorld world(params);
  world.add_node({0.0, 0.0});
  const std::size_t a = world.add_node({120.0, 0.0});   // hears source at ~-93
  world.add_node({240.0, 0.0});                         // hears only A
  // A knows both its neighbours (symmetric 120 m links, loss 109.02 dB).
  world.learn_neighbor(a, 0, -93.0);
  world.learn_neighbor(a, 2, -93.0);
  world.originate(0);
  world.simulator().run_until(sim::seconds(60));

  const BroadcastStats stats = world.collector().finalize(0);
  EXPECT_EQ(stats.coverage, 2u);  // both non-source nodes reached
  // A forwards with adapted power (109.02 - 95 + 1 = 15.02 dBm); B, deep in
  // A's forwarding area with an empty neighbor table, forwards too at the
  // default-power fallback (16.02 dBm) even though nobody is left to hear.
  EXPECT_EQ(stats.forwardings, 2u);
  EXPECT_NEAR(stats.energy_dbm_sum, 15.02 + 16.02, 0.1);
  EXPECT_GT(stats.energy_mj, 0.0);
  // bt: B first-received after A's 0.1 s delay (+ airtimes).
  EXPECT_GT(stats.broadcast_time_s, 0.1);
  EXPECT_LT(stats.broadcast_time_s, 0.2);
}

TEST(AedbProtocol, RepairSwapsInvertedDelays) {
  const AedbParams params = AedbParams::from_vector({0.9, 0.1, -85.0, 1.0, 10.0});
  EXPECT_DOUBLE_EQ(params.min_delay_s, 0.1);
  EXPECT_DOUBLE_EQ(params.max_delay_s, 0.9);
}

TEST(AedbProtocol, FromVectorReadsDecisionOrder) {
  const AedbParams params = AedbParams::from_vector({0.25, 2.5, -80.0, 2.0, 20.0});
  EXPECT_DOUBLE_EQ(params.min_delay_s, 0.25);
  EXPECT_DOUBLE_EQ(params.max_delay_s, 2.5);
  EXPECT_DOUBLE_EQ(params.border_threshold_dbm, -80.0);
  EXPECT_DOUBLE_EQ(params.margin_threshold_db, 2.0);
  EXPECT_DOUBLE_EQ(params.neighbors_threshold, 20.0);
  EXPECT_EQ(AedbParams::names().size(), AedbParams::kDimensions);
}

}  // namespace
}  // namespace aedbmls::aedb
