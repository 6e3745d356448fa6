#pragma once

/// Random-waypoint mobility: travel to a uniformly random waypoint at a
/// uniformly random speed, pause, repeat.  Not used by the paper's scenarios
/// (they use random walk) but provided for robustness studies and as a
/// second realistic model for the examples.

#include "common/rng.hpp"
#include "sim/mobility/mobility_model.hpp"

namespace aedbmls::sim {

class RandomWaypointMobility final : public MobilityModel {
 public:
  struct Config {
    double width = 500.0;
    double height = 500.0;
    double min_speed = 0.5;               ///< m/s; must be > 0 to guarantee progress
    double max_speed = 2.0;               ///< m/s
    Time pause = aedbmls::sim::seconds(2);  ///< dwell time at each waypoint
  };

  RandomWaypointMobility(Config config, Vec2 initial, CounterRng stream);

  [[nodiscard]] Vec2 position(Time t) const override;
  [[nodiscard]] Vec2 velocity(Time t) const override;

 private:
  /// One travel-then-pause leg.
  struct Leg {
    std::uint64_t index = 0;
    Time start{};        ///< departure time from `from`
    Vec2 from;
    Vec2 to;
    double speed = 1.0;  ///< m/s
    Time arrive{};       ///< arrival at `to`
    Time depart{};       ///< arrive + pause == start of next leg
  };

  [[nodiscard]] Leg make_leg(std::uint64_t index, Time start, Vec2 from) const;
  const Leg& leg_at(Time t) const;

  Config config_;
  Vec2 initial_;
  CounterRng stream_;
  mutable Leg cache_;
};

}  // namespace aedbmls::sim
