#pragma once

/// Random-walk mobility (ns-3 `RandomWalk2dMobilityModel` semantics, the
/// model from Table II): every `epoch` (20 s in the paper) the node draws a
/// fresh direction uniform in [0,2π) and speed uniform in [min,max]; it
/// bounces off the rectangle walls in between.
///
/// The implementation is closed-form: reflecting motion inside a box is,
/// per axis, a triangle wave of the unbounded coordinate, so `position(t)`
/// needs no boundary events.  Epoch draws come from a counter-based stream,
/// making the trajectory a pure function of (seed, node, t).

#include "common/rng.hpp"
#include "sim/mobility/mobility_model.hpp"

namespace aedbmls::sim {

class RandomWalkMobility final : public MobilityModel {
 public:
  struct Config {
    double width = 500.0;       ///< arena width in metres
    double height = 500.0;      ///< arena height in metres
    double min_speed = 0.0;     ///< m/s
    double max_speed = 2.0;     ///< m/s
    Time epoch = aedbmls::sim::seconds(20);  ///< direction/speed change period
  };

  /// `initial` must lie inside the arena.  `stream` identifies this node's
  /// trajectory (derive with CounterRng::child(node_id)).
  RandomWalkMobility(Config config, Vec2 initial, CounterRng stream);

  [[nodiscard]] Vec2 position(Time t) const override;
  [[nodiscard]] Vec2 velocity(Time t) const override;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  struct EpochState {
    std::int64_t index = 0;  ///< epoch number
    Vec2 start;              ///< folded position at epoch start
    Vec2 vel;                ///< velocity drawn for this epoch
  };

  /// Velocity drawn for epoch k (before wall reflections).
  [[nodiscard]] Vec2 epoch_velocity(std::int64_t k) const;

  /// Advances the cache to the epoch containing `t`; returns it.
  const EpochState& epoch_at(Time t) const;

  Config config_;
  Vec2 initial_;
  CounterRng stream_;
  mutable EpochState cache_;
};

}  // namespace aedbmls::sim
