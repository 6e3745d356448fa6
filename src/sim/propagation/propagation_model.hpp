#pragma once

/// Radio propagation loss interface.
///
/// Models map (tx power, tx position, rx position) -> rx power in dBm.
/// They must be pure functions (thread-safe, no state) because one model
/// instance is shared by every link of a channel.

#include "sim/geom/vec2.hpp"

namespace aedbmls::sim {

class PropagationModel {
 public:
  virtual ~PropagationModel() = default;

  /// Received power in dBm for a transmission at `tx_dbm` from `a` to `b`.
  [[nodiscard]] virtual double rx_power_dbm(double tx_dbm, Vec2 a, Vec2 b) const = 0;
};

}  // namespace aedbmls::sim
