#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <numbers>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/core/simulator.hpp"
#include "sim/mobility/mobility_model.hpp"
#include "sim/mobility/random_walk.hpp"
#include "sim/net/wireless_channel.hpp"
#include "sim/net/wireless_phy.hpp"
#include "sim/propagation/log_distance.hpp"

namespace aedbmls::sim {
namespace {

/// Two/three PHYs on a line with constant positions and ns-3-like radio
/// parameters; distances chosen against the log-distance defaults
/// (16.02 dBm reaches ~-95 dBm at ~140 m).
class PhyFixture : public ::testing::Test {
 protected:
  void add_node(double x) {
    const auto id = static_cast<NodeId>(mobilities_.size());
    mobilities_.push_back(std::make_unique<ConstantPositionMobility>(Vec2{x, 0.0}));
    phys_.push_back(std::make_unique<WirelessPhy>(simulator_, params_, id));
    channel_.attach(phys_.back().get(), mobilities_.back().get());
  }

  Frame data_frame(std::uint32_t bytes = 256) {
    Frame frame;
    frame.kind = FrameKind::kData;
    frame.size_bytes = bytes;
    frame.message_id = 1;
    return frame;
  }

  Simulator simulator_;
  PhyParams params_{};
  LogDistancePropagation propagation_{};
  WirelessChannel channel_{simulator_, propagation_, true};
  std::vector<std::unique_ptr<ConstantPositionMobility>> mobilities_;
  std::vector<std::unique_ptr<WirelessPhy>> phys_;
};

TEST_F(PhyFixture, FrameDurationMatchesBitrateAndPreamble) {
  add_node(0.0);
  // 256 bytes at 1 Mb/s = 2048 us, plus 192 us preamble.
  EXPECT_EQ(phys_[0]->frame_duration(256), microseconds(2240));
  EXPECT_EQ(phys_[0]->frame_duration(0), microseconds(192));
}

TEST_F(PhyFixture, DeliversFrameWithExpectedPower) {
  add_node(0.0);
  add_node(100.0);
  double rx_power = 0.0;
  int received = 0;
  phys_[1]->set_receive_callback([&](const Frame& frame, double dbm) {
    ++received;
    rx_power = dbm;
    EXPECT_EQ(frame.sender, 0u);
    EXPECT_EQ(frame.message_id, 1u);
  });
  phys_[0]->start_tx(data_frame(), 16.02);
  simulator_.run();
  EXPECT_EQ(received, 1);
  EXPECT_NEAR(rx_power, 16.02 - 46.6777 - 60.0, 1e-9);  // 100 m, exp 3
  EXPECT_EQ(phys_[1]->counters().rx_ok, 1u);
}

TEST_F(PhyFixture, SignalBelowSensitivityNotDelivered) {
  add_node(0.0);
  add_node(400.0);  // rx ~ -109 dBm, below -95 sensitivity
  int received = 0;
  phys_[1]->set_receive_callback([&](const Frame&, double) { ++received; });
  phys_[0]->start_tx(data_frame(), 16.02);
  simulator_.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(phys_[1]->counters().rx_below_sensitivity, 1u);
}

TEST_F(PhyFixture, ConcurrentEqualPowerTransmissionsCollide) {
  add_node(0.0);
  add_node(100.0);  // receiver in the middle
  add_node(200.0);
  int received = 0;
  phys_[1]->set_receive_callback([&](const Frame&, double) { ++received; });
  // Both neighbours transmit simultaneously: equal power at the receiver,
  // SINR ~ 0 dB < 6 dB threshold => the locked frame is lost.
  phys_[0]->start_tx(data_frame(), 16.02);
  phys_[2]->start_tx(data_frame(), 16.02);
  simulator_.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(phys_[1]->counters().rx_failed_sinr, 1u);
  EXPECT_EQ(phys_[1]->counters().rx_missed_busy, 1u);
}

TEST_F(PhyFixture, StrongSignalSurvivesWeakInterferer) {
  add_node(0.0);
  add_node(20.0);   // strong link: ~20 m
  add_node(220.0);  // interferer 200 m from the receiver (>= 20 dB weaker)
  int received = 0;
  phys_[1]->set_receive_callback([&](const Frame&, double) { ++received; });
  phys_[0]->start_tx(data_frame(), 16.02);
  phys_[2]->start_tx(data_frame(), 16.02);
  simulator_.run();
  EXPECT_EQ(received, 1);  // capture: SINR comfortably above threshold
}

TEST_F(PhyFixture, HalfDuplexAbortsReception) {
  add_node(0.0);
  add_node(100.0);
  int received = 0;
  phys_[1]->set_receive_callback([&](const Frame&, double) { ++received; });
  phys_[0]->start_tx(data_frame(), 16.02);
  // Receiver starts its own transmission mid-reception.
  simulator_.schedule(microseconds(500), [&] {
    phys_[1]->start_tx(data_frame(64), 16.02);
  });
  simulator_.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(phys_[1]->counters().rx_aborted_by_tx, 1u);
}

TEST_F(PhyFixture, MediumBusyDuringNeighbourTransmission) {
  add_node(0.0);
  add_node(100.0);
  EXPECT_FALSE(phys_[1]->medium_busy());
  phys_[0]->start_tx(data_frame(), 16.02);
  bool busy_mid = false;
  simulator_.schedule(microseconds(1000), [&] { busy_mid = phys_[1]->medium_busy(); });
  simulator_.run();
  EXPECT_TRUE(busy_mid);
  EXPECT_FALSE(phys_[1]->medium_busy());  // idle again after the frame
}

TEST_F(PhyFixture, CarrierSenseBeyondDecodeRange) {
  add_node(0.0);
  add_node(180.0);  // rx ~ -98.3 dBm: below sensitivity, above cs (-99)
  phys_[0]->start_tx(data_frame(), 16.02);
  bool busy_mid = false;
  simulator_.schedule(microseconds(1000), [&] { busy_mid = phys_[1]->medium_busy(); });
  simulator_.run();
  EXPECT_TRUE(busy_mid);
  EXPECT_EQ(phys_[1]->counters().rx_ok, 0u);
}

TEST_F(PhyFixture, RefusesDoubleTransmit) {
  add_node(0.0);
  add_node(100.0);
  EXPECT_TRUE(phys_[0]->start_tx(data_frame(), 16.02));
  EXPECT_FALSE(phys_[0]->start_tx(data_frame(), 16.02));
  simulator_.run();
  EXPECT_EQ(phys_[0]->counters().tx_frames, 1u);
}

TEST_F(PhyFixture, TxPowerClampedToRadioRange) {
  add_node(0.0);
  add_node(10.0);
  double rx_power = -1000.0;
  phys_[1]->set_receive_callback([&](const Frame& frame, double dbm) {
    rx_power = dbm;
    EXPECT_DOUBLE_EQ(frame.tx_power_dbm, params_.max_tx_power_dbm);
  });
  phys_[0]->start_tx(data_frame(), 99.0);  // far above the radio max
  simulator_.run();
  EXPECT_NEAR(rx_power, params_.max_tx_power_dbm - 46.6777 - 30.0, 1e-9);
}

TEST_F(PhyFixture, PropagationDelayOrdersReceptions) {
  add_node(0.0);
  add_node(30.0);
  add_node(300000.0);  // 1 ms away at light speed — exaggerated distance
  // The far node is out of range, but the near one must see the frame after
  // a ~100 ns flight time, not instantly.
  Time rx_start{};
  phys_[1]->set_receive_callback([&](const Frame&, double) {
    rx_start = simulator_.now();
  });
  phys_[0]->start_tx(data_frame(), 16.02);
  simulator_.run();
  const Time expected_flight = seconds_d(30.0 / 299792458.0);
  const Time frame_time = phys_[1]->frame_duration(256);
  EXPECT_EQ(rx_start, expected_flight + frame_time);
}

/// Node 0 and receivers 10, 40, 90 and 130 m down the line, propagation
/// delay on: one transmission from node 0 arrives at four distinct
/// instants (33, 133, 300 and 434 ns) and its signals end at four distinct
/// instants one airtime later.  Every decoded frame is logged as
/// (receiver, time).
struct Line {
  Line() {
    for (const double x : {0.0, 10.0, 40.0, 90.0, 130.0}) {
      const auto id = static_cast<NodeId>(phys.size());
      mobilities.push_back(std::make_unique<ConstantPositionMobility>(Vec2{x, 0.0}));
      phys.push_back(std::make_unique<WirelessPhy>(simulator, PhyParams{}, id));
      channel.attach(phys.back().get(), mobilities.back().get());
      phys.back()->set_receive_callback([this, id](const Frame&, double) {
        received.emplace_back(id, simulator.now());
      });
    }
  }
  Line(const Line&) = delete;
  Line& operator=(const Line&) = delete;

  /// Node 0 sends a 256-byte frame at full power.
  void transmit() {
    Frame frame;
    frame.size_bytes = 256;
    phys[0]->start_tx(frame, 16.02);
  }

  Simulator simulator;
  LogDistancePropagation propagation{};
  WirelessChannel channel{simulator, propagation, true};
  std::vector<std::unique_ptr<ConstantPositionMobility>> mobilities;
  std::vector<std::unique_ptr<WirelessPhy>> phys;
  std::vector<std::pair<NodeId, Time>> received;
};

TEST(PhyWave, SignalEndIsKeyedWhenItsArrivalRuns) {
  // Like the PHY's own insert did, an arrival takes its signal end's
  // sequence number when it runs.  An event scheduled for the end's
  // instant after the transmission started, but before that arrival ran,
  // therefore runs before the end.
  Line line;
  line.transmit();
  const Time end = seconds_d(10.0 / 299792458.0) + line.phys[1]->frame_duration(256);
  WirelessPhy::State seen = WirelessPhy::State::kIdle;
  line.simulator.schedule_at(end, [&line, &seen] { seen = line.phys[1]->state(); });
  line.simulator.run();
  EXPECT_EQ(seen, WirelessPhy::State::kRx);
  ASSERT_EQ(line.received.size(), 4u);
  EXPECT_EQ(line.received[0].second, end);
}

TEST(PhyWave, RunUntilInsideAWaveResumesLikeOneRun) {
  Line whole;
  whole.transmit();
  whole.simulator.run();
  ASSERT_EQ(whole.received.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(whole.received[i].first, static_cast<NodeId>(i + 1));
  }
  // 4 arrivals, the sender's end of transmission, 4 signal ends.
  EXPECT_EQ(whole.simulator.executed_events(), 9u);

  Line split;
  split.transmit();
  // Strictly between the second (133 ns) and third (300 ns) arrival.
  split.simulator.run_until(nanoseconds(200));
  EXPECT_EQ(split.simulator.executed_events(), 2u);
  EXPECT_EQ(split.simulator.now(), nanoseconds(200));
  EXPECT_EQ(split.phys[2]->state(), WirelessPhy::State::kRx);
  EXPECT_EQ(split.phys[3]->state(), WirelessPhy::State::kIdle);
  split.simulator.run();

  EXPECT_EQ(split.received, whole.received);
  EXPECT_EQ(split.simulator.executed_events(), whole.simulator.executed_events());
  for (std::size_t i = 1; i < split.phys.size(); ++i) {
    EXPECT_EQ(split.phys[i]->counters().rx_ok, whole.phys[i]->counters().rx_ok);
  }
}

TEST(PhyWave, StopFromAReceiveCallbackHaltsTheWave) {
  Line whole;
  whole.transmit();
  whole.simulator.run();

  Line stopped;
  // As the scenario's infeasibility stop does: halt from inside a delivery.
  stopped.phys[1]->set_receive_callback([&stopped](const Frame&, double) {
    stopped.received.emplace_back(1, stopped.simulator.now());
    stopped.simulator.stop();
  });
  stopped.transmit();
  stopped.simulator.run();
  // The nearest receiver's signal ends first; no later member of the wave
  // ran before run() returned.
  ASSERT_EQ(stopped.received.size(), 1u);
  EXPECT_EQ(stopped.received[0], whole.received[0]);
  EXPECT_EQ(stopped.simulator.now(), whole.received[0].second);
  EXPECT_EQ(stopped.simulator.executed_events(), 6u);  // 4 arrivals, tx end, 1 end
  for (std::size_t i = 2; i < stopped.phys.size(); ++i) {
    EXPECT_EQ(stopped.phys[i]->state(), WirelessPhy::State::kRx);
    EXPECT_EQ(stopped.phys[i]->counters().rx_ok, 0u);
  }

  stopped.simulator.run();
  EXPECT_EQ(stopped.received, whole.received);
  EXPECT_EQ(stopped.simulator.executed_events(), whole.simulator.executed_events());
}

/// Plain log-distance behind the generic interface: a channel built on it
/// takes the uncut receiver loop (no cull radius, virtual path loss).
class UncutLogDistance final : public PropagationModel {
 public:
  explicit UncutLogDistance(const LogDistancePropagation& model) : model_(model) {}
  [[nodiscard]] double rx_power_dbm(double tx_dbm, Vec2 a, Vec2 b) const override {
    return model_.rx_power_dbm(tx_dbm, a, b);
  }

 private:
  const LogDistancePropagation& model_;
};

/// One node of a `CullWorld`: its position and interference floor.
struct CullNode {
  Vec2 position;
  double floor_dbm;
};

/// One transmission from node 0 over `nodes`; returns the bits of every
/// delivered receiver's decoded power, by receiver.  Every PHY decodes
/// whatever reaches it (sensitivity and SINR thresholds far below any
/// signal), so the decoded set is the delivered set.  Even nodes stand
/// still, odd nodes are zero-speed random walks (the channel's inline
/// mobility path); the arena is large enough to hold every position.
std::map<NodeId, std::uint64_t> transmit_once(const PropagationModel& propagation,
                                              const std::vector<CullNode>& nodes,
                                              double tx_dbm,
                                              std::uint64_t* delivered) {
  Simulator simulator;
  WirelessChannel channel(simulator, propagation, true);
  RandomWalkMobility::Config still;
  still.width = 1e6;
  still.height = 1e6;
  still.min_speed = 0.0;
  still.max_speed = 0.0;
  std::vector<std::unique_ptr<MobilityModel>> mobilities;
  std::vector<std::unique_ptr<WirelessPhy>> phys;
  std::map<NodeId, std::uint64_t> heard;
  for (const CullNode& node : nodes) {
    const auto id = static_cast<NodeId>(phys.size());
    if (id % 2 == 0) {
      mobilities.push_back(std::make_unique<ConstantPositionMobility>(node.position));
    } else {
      mobilities.push_back(std::make_unique<RandomWalkMobility>(
          still, node.position, CounterRng(id)));
    }
    PhyParams params;
    params.interference_floor_dbm = node.floor_dbm;
    params.rx_sensitivity_dbm = -1000.0;
    params.sinr_threshold_db = -1000.0;
    phys.push_back(std::make_unique<WirelessPhy>(simulator, params, id));
    phys.back()->set_receive_callback([&heard, id](const Frame&, double dbm) {
      heard[id] = std::bit_cast<std::uint64_t>(dbm);
    });
    channel.attach(phys.back().get(), mobilities.back().get());
  }
  Frame frame;
  frame.size_bytes = 64;
  phys[0]->start_tx(frame, tx_dbm);
  simulator.run();
  *delivered = channel.signals_delivered();
  return heard;
}

TEST(PhyCull, CulledLoopDeliversExactlyWhatTheUncutLoopDelivers) {
  // The cull radius is distance_for_loss(tx - lowest floor) * (1 + 1e-6):
  // receivers sit at random, at that radius x (1 +- 1e-9), and at their
  // own floor's exact distance x (1 +- 1e-9), where the floor test alone
  // decides.  The culled channel (plain log-distance) must deliver the
  // same receivers at bitwise the same power as the uncut one.
  const std::vector<LogDistancePropagation::Config> models = {
      {}, {.exponent = 2.0}, {.exponent = 3.8, .reference_loss_db = 40.0}};
  const std::vector<double> floors = {-115.0, -110.0, -100.0, -95.0};
  Xoshiro256 rng(20130520);
  std::uint64_t total_delivered = 0;
  std::uint64_t total_candidates = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const LogDistancePropagation culled(models[trial % models.size()]);
    const UncutLogDistance uncut(culled);
    const Vec2 origin{5e5, 5e5};
    const double tx_dbm = rng.uniform(-60.0, 16.02);
    std::vector<CullNode> nodes;
    nodes.push_back({origin, floors[rng.uniform_int(floors.size())]});
    double lowest = nodes[0].floor_dbm;
    for (int i = 0; i < 24; ++i) {
      nodes.push_back({origin, floors[rng.uniform_int(floors.size())]});
      lowest = std::min(lowest, nodes.back().floor_dbm);
    }
    const double radius =
        culled.distance_for_loss(tx_dbm - lowest) * (1.0 + 1e-6);
    auto at = [&](std::size_t i, double meters) {
      const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
      nodes[i].position = {origin.x + meters * std::cos(angle),
                           origin.y + meters * std::sin(angle)};
    };
    for (std::size_t i = 1; i < nodes.size(); ++i) {
      switch (i % 5) {
        case 0: at(i, radius * (1.0 - 1e-9)); break;
        case 1: at(i, radius * (1.0 + 1e-9)); break;
        case 2:
          at(i, culled.distance_for_loss(tx_dbm - nodes[i].floor_dbm) *
                    (rng.bernoulli(0.5) ? 1.0 - 1e-9 : 1.0 + 1e-9));
          break;
        default: at(i, rng.uniform(0.0, 2.5 * radius)); break;
      }
    }
    std::uint64_t culled_delivered = 0;
    std::uint64_t uncut_delivered = 0;
    const auto culled_heard = transmit_once(culled, nodes, tx_dbm, &culled_delivered);
    const auto uncut_heard = transmit_once(uncut, nodes, tx_dbm, &uncut_delivered);
    EXPECT_EQ(culled_heard, uncut_heard) << "trial " << trial;
    EXPECT_EQ(culled_delivered, uncut_delivered) << "trial " << trial;
    EXPECT_EQ(culled_delivered, culled_heard.size()) << "trial " << trial;
    total_delivered += culled_delivered;
    total_candidates += nodes.size() - 1;
  }
  // The geometry exercises both sides of every boundary.
  EXPECT_GT(total_delivered, total_candidates / 10);
  EXPECT_LT(total_delivered, total_candidates / 2);
}

TEST(PhyWaveDeathTest, AirtimeShorterThanArrivalSpreadIsRejected) {
  // One byte at 1 Gb/s with no preamble is 8 ns on the air, but receivers
  // at 10 m and 100 m hear it 33 ns and 334 ns after it starts: the near
  // receiver's signal would end before the far one's arrival.
  EXPECT_DEATH(
      {
        PhyParams params;
        params.preamble = Time{};
        params.bitrate_bps = 1e9;
        Simulator simulator;
        const LogDistancePropagation propagation;
        WirelessChannel channel(simulator, propagation, true);
        std::vector<std::unique_ptr<ConstantPositionMobility>> mobilities;
        std::vector<std::unique_ptr<WirelessPhy>> phys;
        for (const double x : {0.0, 10.0, 100.0}) {
          mobilities.push_back(
              std::make_unique<ConstantPositionMobility>(Vec2{x, 0.0}));
          phys.push_back(std::make_unique<WirelessPhy>(
              simulator, params, static_cast<NodeId>(phys.size())));
          channel.attach(phys.back().get(), mobilities.back().get());
        }
        Frame frame;
        frame.size_bytes = 1;
        phys[0]->start_tx(frame, 16.02);
      },
      "airtime shorter than the arrival spread");
}

}  // namespace
}  // namespace aedbmls::sim
