#include "sim/apps/beacon_app.hpp"

#include <gtest/gtest.h>

#include "sim/core/simulator.hpp"
#include "sim/net/network.hpp"

namespace aedbmls::sim {
namespace {

/// Small static network with beaconing on every node.
struct BeaconWorld {
  explicit BeaconWorld(std::size_t nodes, Time start, Time horizon) {
    NetworkConfig config;
    config.node_count = nodes;
    config.seed = 5;
    config.mobility = MobilityKind::kStatic;
    // Dense: everyone hears everyone.  The default radio decodes up to
    // ~140 m, so a 70 m box (diagonal ~99 m) guarantees full connectivity.
    config.area_width = 70.0;
    config.area_height = 70.0;
    simulator = std::make_unique<Simulator>();
    network = std::make_unique<Network>(*simulator, config);
    for (std::size_t i = 0; i < nodes; ++i) {
      BeaconApp::Config beacon_config;
      beacon_config.start_at = start;
      apps.push_back(&network->node(i).add_app<BeaconApp>(
          beacon_config, CounterRng(100 + i)));
    }
    simulator->run_until(horizon);
  }

  std::unique_ptr<Simulator> simulator;
  std::unique_ptr<Network> network;
  std::vector<BeaconApp*> apps;
};

TEST(BeaconApp, DiscoversAllNeighboursInDenseStaticNetwork) {
  BeaconWorld world(5, seconds(1), seconds(5));
  for (BeaconApp* app : world.apps) {
    EXPECT_EQ(app->neighbor_table().size(), 4u);
    EXPECT_GT(app->beacons_sent(), 0u);
    EXPECT_GT(app->beacons_heard(), 0u);
  }
}

TEST(BeaconApp, BeaconRateMatchesPeriod) {
  BeaconWorld world(3, seconds(1), seconds(11));
  for (BeaconApp* app : world.apps) {
    // ~10 s of beaconing at 1 Hz (+jitter): 9..11 beacons.
    EXPECT_GE(app->beacons_sent(), 9u);
    EXPECT_LE(app->beacons_sent(), 11u);
  }
}

TEST(BeaconApp, NoBeaconsBeforeStart) {
  BeaconWorld world(3, seconds(27), seconds(26));
  for (BeaconApp* app : world.apps) {
    EXPECT_EQ(app->beacons_sent(), 0u);
    EXPECT_EQ(app->neighbor_table().size(), 0u);
  }
}

TEST(BeaconApp, RecordsPlausibleReceptionPower) {
  BeaconWorld world(2, seconds(1), seconds(4));
  const NeighborTable& table = world.apps[0]->neighbor_table();
  ASSERT_EQ(table.size(), 1u);
  const auto neighbor = table.furthest();  // the one entry
  // Beacons go out at 16.02 dBm; anywhere in a 200 m arena the reception
  // must sit between the reference loss and the sensitivity floor, so the
  // path loss (tx - rx) lies between the reference loss and tx - (-95).
  EXPECT_GT(neighbor->path_loss_db, 46.0);
  EXPECT_LT(neighbor->path_loss_db, 16.02 + 95.0);
}

TEST(BeaconApp, IgnoresDataFrames) {
  BeaconWorld world(2, seconds(1), seconds(2));
  Frame data;
  data.kind = FrameKind::kData;
  data.sender = 1;
  data.size_bytes = 100;
  const auto heard_before = world.apps[0]->beacons_heard();
  world.apps[0]->on_receive(data, -50.0);
  EXPECT_EQ(world.apps[0]->beacons_heard(), heard_before);
}

}  // namespace
}  // namespace aedbmls::sim
