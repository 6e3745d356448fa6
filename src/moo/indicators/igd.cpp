#include "moo/indicators/igd.hpp"

#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "common/math_utils.hpp"

namespace aedbmls::moo {
namespace {

double nearest_sq(const std::vector<double>& point,
                  const std::vector<Solution>& set) {
  double best = std::numeric_limits<double>::infinity();
  for (const Solution& s : set) {
    best = std::min(best, squared_distance(point, s.objectives));
  }
  return best;
}

}  // namespace

double generational_distance(const std::vector<Solution>& from,
                             const std::vector<Solution>& to) {
  AEDB_REQUIRE(!from.empty() && !to.empty(), "GD of empty front");
  double sum_sq = 0.0;
  for (const Solution& s : from) sum_sq += nearest_sq(s.objectives, to);
  return std::sqrt(sum_sq) / static_cast<double>(from.size());
}

}  // namespace aedbmls::moo
