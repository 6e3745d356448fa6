#pragma once

/// Log-distance path loss: L(d) = L0 + 10*n*log10(d/d0).
///
/// Defaults replicate ns-3's `LogDistancePropagationLossModel`
/// (exponent 3.0, 46.6777 dB reference loss at 1 m, i.e. Friis at 2.4 GHz),
/// the model the paper's ns-3 campaigns effectively run with.  Distances
/// below the reference distance see only the reference loss.

#include <cmath>

#include "sim/propagation/propagation_model.hpp"

namespace aedbmls::sim {

class LogDistancePropagation final : public PropagationModel {
 public:
  struct Config {
    double exponent = 3.0;            ///< path loss exponent n
    double reference_distance = 1.0;  ///< d0 in metres
    double reference_loss_db = 46.6777;  ///< L0 at d0 (2.4 GHz Friis @ 1 m)

    friend constexpr bool operator==(const Config&, const Config&) = default;
  };

  /// ns-3 defaults (exponent 3, 46.6777 dB @ 1 m).
  LogDistancePropagation() noexcept;
  explicit LogDistancePropagation(Config config) noexcept;

  [[nodiscard]] double rx_power_dbm(double tx_dbm, Vec2 a, Vec2 b) const override;

  /// Loss in dB at distance `d` metres.  Inline: the channel's receiver
  /// loop calls it once per link.
  [[nodiscard]] double loss_db(double d) const noexcept {
    if (d <= config_.reference_distance) return config_.reference_loss_db;
    return config_.reference_loss_db +
           10.0 * config_.exponent * std::log10(d / config_.reference_distance);
  }

  /// Inverse of loss_db: the distance at which the loss equals `loss`
  /// (the reference distance for `loss` <= the reference loss).  The
  /// channel derives each transmission's cull radius from it: the distance
  /// beyond which the signal falls below the lowest interference floor.
  [[nodiscard]] double distance_for_loss(double loss) const noexcept;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  Config config_;
};

}  // namespace aedbmls::sim
