#include "sim/propagation/log_distance.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace aedbmls::sim {

LogDistancePropagation::LogDistancePropagation() noexcept
    : LogDistancePropagation(Config{}) {}

LogDistancePropagation::LogDistancePropagation(Config config) noexcept
    : config_(config) {}

double LogDistancePropagation::distance_for_loss(double loss) const noexcept {
  if (loss <= config_.reference_loss_db) return config_.reference_distance;
  return config_.reference_distance *
         std::pow(10.0, (loss - config_.reference_loss_db) /
                            (10.0 * config_.exponent));
}

double LogDistancePropagation::rx_power_dbm(double tx_dbm, Vec2 a, Vec2 b) const {
  return tx_dbm - loss_db(distance(a, b));
}

}  // namespace aedbmls::sim
