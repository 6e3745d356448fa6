/// Randomised conservation stress of the PHY/MAC stack: for any traffic
/// pattern, every signal a receiver's PHY sees must be accounted for by
/// exactly one of its counters, and global accounting must balance what
/// the channel delivered.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/core/simulator.hpp"
#include "sim/mobility/mobility_model.hpp"
#include "sim/net/csma_mac.hpp"
#include "sim/net/wireless_channel.hpp"
#include "sim/net/wireless_phy.hpp"
#include "sim/propagation/log_distance.hpp"

namespace aedbmls::sim {
namespace {

struct StressCase {
  std::uint64_t seed;
  std::size_t stations;
  int frames;
  double area;
};

class PhyConservation : public ::testing::TestWithParam<StressCase> {};

TEST_P(PhyConservation, EverySignalAccountedFor) {
  const StressCase c = GetParam();
  Simulator simulator;
  const LogDistancePropagation propagation;
  WirelessChannel channel(simulator, propagation, true);

  struct Station {
    std::unique_ptr<ConstantPositionMobility> mobility;
    std::unique_ptr<WirelessPhy> phy;
    std::unique_ptr<CsmaBroadcastMac> mac;
    std::uint64_t delivered = 0;
  };
  std::vector<std::unique_ptr<Station>> stations;
  Xoshiro256 rng(c.seed);
  for (std::size_t i = 0; i < c.stations; ++i) {
    auto station = std::make_unique<Station>();
    station->mobility = std::make_unique<ConstantPositionMobility>(
        Vec2{rng.uniform(0.0, c.area), rng.uniform(0.0, c.area)});
    station->phy = std::make_unique<WirelessPhy>(simulator, PhyParams{},
                                                 static_cast<NodeId>(i));
    channel.attach(station->phy.get(), station->mobility.get());
    station->mac = std::make_unique<CsmaBroadcastMac>(
        simulator, *station->phy, CsmaBroadcastMac::Params{}, c.seed + i);
    Station* raw = station.get();
    station->phy->set_receive_callback(
        [raw](const Frame&, double) { ++raw->delivered; });
    stations.push_back(std::move(station));
  }

  // Random bursts of traffic from random stations at random times.
  for (int f = 0; f < c.frames; ++f) {
    const std::size_t sender = rng.uniform_int(stations.size());
    const double at = rng.uniform(0.0, 2.0);
    const auto bytes = static_cast<std::uint32_t>(rng.uniform_int(32, 512));
    simulator.schedule_at(seconds_d(at), [&stations, sender, bytes] {
      Frame frame;
      frame.kind = FrameKind::kData;
      frame.size_bytes = bytes;
      stations[sender]->mac->enqueue(frame, 16.02);
    });
  }
  simulator.run();

  std::uint64_t signals_seen = 0;
  std::uint64_t frames_sent = 0;
  for (const auto& station : stations) {
    const WirelessPhy::Counters& counters = station->phy->counters();
    // Per-receiver conservation: every begin_rx ends in exactly one bucket.
    const std::uint64_t accounted = counters.rx_ok + counters.rx_failed_sinr +
                                    counters.rx_aborted_by_tx +
                                    counters.rx_missed_busy +
                                    counters.rx_below_sensitivity;
    signals_seen += accounted;
    frames_sent += counters.tx_frames;
    // Delivered callbacks equal decoded frames.
    EXPECT_EQ(station->delivered, counters.rx_ok);
    // MAC and PHY agree on how much was transmitted.
    EXPECT_EQ(station->mac->counters().sent + station->mac->counters().dropped,
              station->mac->counters().enqueued);
    EXPECT_EQ(station->mac->counters().sent, counters.tx_frames);
  }
  // Global conservation: the channel delivered exactly the signals the
  // receivers accounted for (those above the interference floor).
  EXPECT_EQ(channel.signals_delivered(), signals_seen);
  EXPECT_GT(frames_sent, 0u);
}

TEST_P(PhyConservation, DeterministicAcrossIdenticalRuns) {
  const StressCase c = GetParam();
  auto run_once = [&c]() {
    Simulator simulator;
    const LogDistancePropagation propagation;
    WirelessChannel channel(simulator, propagation, true);
    std::vector<std::unique_ptr<ConstantPositionMobility>> mobilities;
    std::vector<std::unique_ptr<WirelessPhy>> phys;
    std::vector<std::unique_ptr<CsmaBroadcastMac>> macs;
    Xoshiro256 rng(c.seed);
    for (std::size_t i = 0; i < c.stations; ++i) {
      mobilities.push_back(std::make_unique<ConstantPositionMobility>(
          Vec2{rng.uniform(0.0, c.area), rng.uniform(0.0, c.area)}));
      phys.push_back(std::make_unique<WirelessPhy>(simulator, PhyParams{},
                                                   static_cast<NodeId>(i)));
      channel.attach(phys.back().get(), mobilities.back().get());
      macs.push_back(std::make_unique<CsmaBroadcastMac>(
          simulator, *phys.back(), CsmaBroadcastMac::Params{}, c.seed + i));
    }
    for (int f = 0; f < c.frames; ++f) {
      const std::size_t sender = rng.uniform_int(phys.size());
      const double at = rng.uniform(0.0, 2.0);
      simulator.schedule_at(seconds_d(at), [&macs, sender] {
        Frame frame;
        frame.kind = FrameKind::kData;
        frame.size_bytes = 128;
        macs[sender]->enqueue(frame, 16.02);
      });
    }
    simulator.run();
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    for (const auto& phy : phys) {
      ok += phy->counters().rx_ok;
      failed += phy->counters().rx_failed_sinr;
    }
    return std::tuple{simulator.executed_events(), ok, failed};
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(
    TrafficPatterns, PhyConservation,
    ::testing::Values(StressCase{1, 5, 50, 300.0}, StressCase{2, 10, 100, 500.0},
                      StressCase{3, 20, 200, 400.0},
                      StressCase{4, 8, 150, 150.0}),  // dense: heavy collisions
    [](const ::testing::TestParamInfo<StressCase>& info) {
      return "case" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace aedbmls::sim
