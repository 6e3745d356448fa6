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
///
/// `position` is inline: the channel queries every node once per
/// transmission through a `const RandomWalkMobility*` (the class is final,
/// so the call is direct), and a query inside the cached epoch touches
/// neither `fmod` nor an integer division.

#include <cmath>

#include "common/rng.hpp"
#include "sim/mobility/mobility_model.hpp"

namespace aedbmls::sim {

/// An unbounded coordinate folded into [0, limit] by wall reflection, and
/// whether the velocity sign is flipped at that point.
struct WallFold {
  double value;
  double sign;
};

/// The random walk's per-axis fold (a triangle wave of period 2·limit).
/// Inside the box, 0 <= x <= limit, `fmod` would return `x` itself (-0.0
/// included), so that case skips it; the result is bitwise that of the
/// always-`fmod` fold.
[[nodiscard]] inline WallFold wall_fold(double x, double limit) noexcept {
  if (limit <= 0.0) return {0.0, 1.0};
  if (x >= 0.0 && x <= limit) return {x, 1.0};
  const double period = 2.0 * limit;
  double m = std::fmod(x, period);
  if (m < 0.0) m += period;
  if (m <= limit) return {m, 1.0};
  return {period - m, -1.0};
}

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

  [[nodiscard]] Vec2 position(Time t) const override {
    const EpochState& e = epoch_at(t);
    const double dt = (t - e.begin).seconds();
    const Vec2 unbounded = e.start + e.vel * dt;
    return {wall_fold(unbounded.x, config_.width).value,
            wall_fold(unbounded.y, config_.height).value};
  }
  [[nodiscard]] Vec2 velocity(Time t) const override;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  struct EpochState {
    std::int64_t index = 0;  ///< epoch number
    Time begin;              ///< epoch start, config_.epoch * index
    Vec2 start;              ///< folded position at epoch start
    Vec2 vel;                ///< velocity drawn for this epoch
  };

  /// Velocity drawn for epoch k (before wall reflections).
  [[nodiscard]] Vec2 epoch_velocity(std::int64_t k) const;

  /// The cached epoch when it contains `t` (t >= begin >= 0 there, and
  /// t / epoch == index), else `advance_to(t)`.
  const EpochState& epoch_at(Time t) const {
    if (t >= cache_.begin && t - cache_.begin < config_.epoch) return cache_;
    return advance_to(t);
  }

  /// Moves the cache to the epoch containing `t`; returns it.
  const EpochState& advance_to(Time t) const;

  Config config_;
  Vec2 initial_;
  CounterRng stream_;
  mutable EpochState cache_;
};

}  // namespace aedbmls::sim
