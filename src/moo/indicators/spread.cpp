#include "moo/indicators/spread.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "common/math_utils.hpp"

namespace aedbmls::moo {
namespace {

/// Objective-wise extreme points of a front: for each objective, the member
/// attaining its minimum (ties: first).
std::vector<std::vector<double>> extreme_points(const std::vector<Solution>& front) {
  const std::size_t m = front.front().objectives.size();
  std::vector<std::vector<double>> extremes;
  extremes.reserve(m);
  for (std::size_t obj = 0; obj < m; ++obj) {
    const Solution* best = &front.front();
    for (const Solution& s : front) {
      if (s.objectives[obj] < best->objectives[obj]) best = &s;
    }
    extremes.push_back(best->objectives);
  }
  return extremes;
}

double nearest_distance(const std::vector<double>& point,
                        const std::vector<Solution>& set,
                        const Solution* skip = nullptr) {
  double best = std::numeric_limits<double>::infinity();
  for (const Solution& s : set) {
    if (&s == skip) continue;
    best = std::min(best, squared_distance(point, s.objectives));
  }
  return std::sqrt(best);
}

}  // namespace

double generalized_spread(const std::vector<Solution>& front,
                          const std::vector<Solution>& reference) {
  AEDB_REQUIRE(!front.empty() && !reference.empty(), "spread of empty front");
  const auto ref_extremes = extreme_points(reference);

  // Distance from each reference extreme to the front.
  double extreme_sum = 0.0;
  for (const auto& e : ref_extremes) extreme_sum += nearest_distance(e, front);

  if (front.size() < 2) return 1.0;

  // Nearest-neighbour distance of every front member.
  std::vector<double> d;
  d.reserve(front.size());
  for (const Solution& s : front) {
    d.push_back(nearest_distance(s.objectives, front, &s));
  }
  double mean = 0.0;
  for (const double v : d) mean += v;
  mean /= static_cast<double>(d.size());

  double deviation = 0.0;
  for (const double v : d) deviation += std::fabs(v - mean);

  const double denom = extreme_sum + static_cast<double>(front.size()) * mean;
  if (denom <= 0.0) return 0.0;
  return (extreme_sum + deviation) / denom;
}

}  // namespace aedbmls::moo
