#include "moo/core/front_io.hpp"

#include <algorithm>
#include <sstream>

#include "moo/core/nds.hpp"

namespace aedbmls::moo {

std::string front_to_csv(const std::vector<Solution>& front) {
  std::ostringstream os;
  os.precision(17);
  if (front.empty()) return "";
  const std::size_t d = front.front().x.size();
  const std::size_t m = front.front().objectives.size();
  for (std::size_t i = 0; i < d; ++i) os << "x" << i << ",";
  for (std::size_t i = 0; i < m; ++i) os << "f" << i << ",";
  os << "cv\n";
  for (const Solution& s : front) {
    for (const double v : s.x) os << v << ",";
    for (const double v : s.objectives) os << v << ",";
    os << s.constraint_violation << "\n";
  }
  return os.str();
}

void sort_canonical(std::vector<Solution>& front) {
  std::sort(front.begin(), front.end(), [](const Solution& a, const Solution& b) {
    if (a.objectives != b.objectives) return a.objectives < b.objectives;
    if (a.constraint_violation != b.constraint_violation) {
      return a.constraint_violation < b.constraint_violation;
    }
    return a.x < b.x;
  });
}

std::vector<Solution> merge_fronts(
    const std::vector<std::vector<Solution>>& fronts) {
  std::vector<Solution> all;
  for (const auto& front : fronts) {
    all.insert(all.end(), front.begin(), front.end());
  }
  return non_dominated_subset(all);
}

}  // namespace aedbmls::moo
