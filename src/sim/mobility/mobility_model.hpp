#pragma once

/// Node mobility interface.
///
/// Models are *queried*, not stepped: `position(t)` must be valid for any
/// non-decreasing sequence of query times (implementations may cache).  This
/// lets the 30-second topology warm-up of the paper's scenarios cost zero
/// simulation events.

#include "sim/core/time.hpp"
#include "sim/geom/vec2.hpp"

namespace aedbmls::sim {

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Position at simulation time `t` (metres).
  [[nodiscard]] virtual Vec2 position(Time t) const = 0;

  /// Instantaneous velocity at time `t` (metres/second).
  [[nodiscard]] virtual Vec2 velocity(Time t) const = 0;
};

/// A node that never moves.
class ConstantPositionMobility final : public MobilityModel {
 public:
  explicit ConstantPositionMobility(Vec2 position) noexcept : position_(position) {}

  [[nodiscard]] Vec2 position(Time) const override { return position_; }
  [[nodiscard]] Vec2 velocity(Time) const override { return {0.0, 0.0}; }

  /// Moves the node (for tests building specific topologies).
  void set_position(Vec2 p) noexcept { position_ = p; }

 private:
  Vec2 position_;
};

}  // namespace aedbmls::sim
