#pragma once

#include <cmath>
#include <vector>

namespace aedbmls {

/// Squared Euclidean distance between equally sized vectors.
[[nodiscard]] inline double squared_distance(const std::vector<double>& a,
                                             const std::vector<double>& b) noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

/// Euclidean distance between equally sized vectors.
[[nodiscard]] inline double euclidean_distance(const std::vector<double>& a,
                                               const std::vector<double>& b) noexcept {
  return std::sqrt(squared_distance(a, b));
}

}  // namespace aedbmls
