#include <gtest/gtest.h>

#include "sim/core/simulator.hpp"
#include "sim/net/network.hpp"

namespace aedbmls::sim {
namespace {

NetworkConfig small_config() {
  NetworkConfig config;
  config.node_count = 10;
  config.seed = 77;
  config.network_index = 0;
  return config;
}

TEST(Network, BuildsRequestedNodeCount) {
  Simulator simulator;
  Network network(simulator, small_config());
  EXPECT_EQ(network.size(), 10u);
  EXPECT_EQ(network.channel().device_count(), 10u);
}

TEST(Network, NodesHaveDistinctIdsAndPositions) {
  Simulator simulator;
  Network network(simulator, small_config());
  for (std::size_t i = 0; i < network.size(); ++i) {
    EXPECT_EQ(network.node(i).id(), i);
    for (std::size_t j = i + 1; j < network.size(); ++j) {
      const Vec2 a = network.node(i).position(Time{});
      const Vec2 b = network.node(j).position(Time{});
      EXPECT_FALSE(a.x == b.x && a.y == b.y);
    }
  }
}

TEST(Network, SameSeedSameTopology) {
  Simulator sim_a;
  Simulator sim_b;
  Network a(sim_a, small_config());
  Network b(sim_b, small_config());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Vec2 pa = a.node(i).position(seconds(33));
    const Vec2 pb = b.node(i).position(seconds(33));
    EXPECT_DOUBLE_EQ(pa.x, pb.x);
    EXPECT_DOUBLE_EQ(pa.y, pb.y);
  }
}

TEST(Network, DifferentNetworkIndexDifferentTopology) {
  Simulator simulator;
  NetworkConfig config_b = small_config();
  config_b.network_index = 1;
  Network a(simulator, small_config());
  Network b(simulator, config_b);
  bool any_differ = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Vec2 pa = a.node(i).position(Time{});
    const Vec2 pb = b.node(i).position(Time{});
    if (pa.x != pb.x || pa.y != pb.y) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(Network, StaticNodesDoNotMove) {
  Simulator simulator;
  NetworkConfig config = small_config();
  config.mobility = MobilityKind::kStatic;
  Network network(simulator, config);
  const Vec2 before = network.node(3).position(Time{});
  const Vec2 after = network.node(3).position(seconds(100));
  EXPECT_DOUBLE_EQ(before.x, after.x);
  EXPECT_DOUBLE_EQ(before.y, after.y);
}

TEST(Network, MobileNodesMove) {
  Simulator simulator;
  Network network(simulator, small_config());
  bool any_moved = false;
  for (std::size_t i = 0; i < network.size(); ++i) {
    const Vec2 before = network.node(i).position(Time{});
    const Vec2 after = network.node(i).position(seconds(30));
    if (before.x != after.x || before.y != after.y) any_moved = true;
  }
  EXPECT_TRUE(any_moved);
}

TEST(Network, MobilityKindsAllBuildAndMove) {
  for (const MobilityKind kind :
       {MobilityKind::kRandomWalk, MobilityKind::kRandomWaypoint,
        MobilityKind::kGaussMarkov}) {
    Simulator simulator;
    NetworkConfig config = small_config();
    config.mobility = kind;
    Network network(simulator, config);
    bool any_moved = false;
    for (std::size_t i = 0; i < network.size(); ++i) {
      const Vec2 before = network.node(i).position(Time{});
      const Vec2 after = network.node(i).position(seconds(60));
      if (before.x != after.x || before.y != after.y) any_moved = true;
      EXPECT_GE(after.x, 0.0);
      EXPECT_LE(after.x, 500.0);
    }
    EXPECT_TRUE(any_moved) << "mobility kind " << static_cast<int>(kind);
  }
}

TEST(Network, ShadowingChangesLinkBudgetDeterministically) {
  NetworkConfig config = small_config();
  config.mobility = MobilityKind::kStatic;
  config.shadowing_sigma_db = 6.0;

  auto measure = [](const NetworkConfig& c) {
    Simulator simulator;
    Network network(simulator, c);
    double sum_rx = 0.0;
    int received = 0;
    for (std::size_t i = 1; i < network.size(); ++i) {
      network.node(i).device().set_rx_callback(
          [&](const Frame&, double rx_dbm) {
            sum_rx += rx_dbm;
            ++received;
          });
    }
    Frame frame;
    frame.kind = FrameKind::kData;
    frame.size_bytes = 64;
    network.node(0).device().send(frame, 16.02);
    simulator.run();
    return std::pair{received, sum_rx};
  };

  const auto with_a = measure(config);
  const auto with_b = measure(config);
  EXPECT_EQ(with_a, with_b);  // deterministic shadow field

  NetworkConfig clean = config;
  clean.shadowing_sigma_db = 0.0;
  const auto without = measure(clean);
  EXPECT_TRUE(with_a.first != without.first || with_a.second != without.second);
}

TEST(Network, BroadcastReachesNeighboursEndToEnd) {
  Simulator simulator;
  NetworkConfig config = small_config();
  config.mobility = MobilityKind::kStatic;
  Network network(simulator, config);
  int received = 0;
  for (std::size_t i = 1; i < network.size(); ++i) {
    network.node(i).device().set_rx_callback(
        [&](const Frame&, double) { ++received; });
  }
  Frame frame;
  frame.kind = FrameKind::kData;
  frame.size_bytes = 64;
  network.node(0).device().send(frame, 16.02);
  simulator.run();
  EXPECT_GT(received, 0);
  EXPECT_GT(network.channel().signals_delivered(), 0u);
}

}  // namespace
}  // namespace aedbmls::sim
