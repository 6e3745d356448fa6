#pragma once

/// The five tunable AEDB parameters and their optimisation domains
/// (Table III of the paper).

#include <array>
#include <string>
#include <vector>

namespace aedbmls::aedb {

/// One AEDB configuration = one point of the search space.
struct AedbParams {
  double min_delay_s = 0.0;          ///< lower bound of the forwarding delay
  double max_delay_s = 1.0;          ///< upper bound of the forwarding delay
  double border_threshold_dbm = -85.0;  ///< forwarding-area boundary (rx power)
  double margin_threshold_db = 1.0;  ///< mobility safety margin on tx power
  double neighbors_threshold = 10.0; ///< density switch for power adaptation

  /// Decision-vector order used throughout the optimiser.
  enum Index : std::size_t {
    kMinDelay = 0,
    kMaxDelay = 1,
    kBorderThreshold = 2,
    kMarginThreshold = 3,
    kNeighborsThreshold = 4,
    kDimensions = 5,
  };

  /// Optimisation domain of Table III: min_delay [0,1] s, max_delay [0,5] s,
  /// border [-95,-70] dBm, margin [0,3] dB, neighbors [0,50].
  static const std::array<std::pair<double, double>, kDimensions>& domain();

  /// Wider domains used by the paper's sensitivity analysis (§III-B).
  static const std::array<std::pair<double, double>, kDimensions>& sa_domain();

  /// Decodes a decision vector, applying the repair rule: when
  /// min_delay > max_delay, the two are swapped (keeps the delay interval
  /// well-formed without biasing the search).
  static AedbParams from_vector(const std::vector<double>& x);

  /// Human-readable one-liner for traces and tables.
  [[nodiscard]] std::string to_string() const;

  /// Variable names in decision-vector order (tables, sensitivity output).
  static const std::array<std::string, kDimensions>& names();
};

}  // namespace aedbmls::aedb
