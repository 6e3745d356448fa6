#include "sim/mobility/placement.hpp"

namespace aedbmls::sim {

std::vector<Vec2> uniform_positions(const CounterRng& stream, std::size_t count,
                                    double width, double height) {
  std::vector<Vec2> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({stream.uniform(2 * i, 0.0, width),
                   stream.uniform(2 * i + 1, 0.0, height)});
  }
  return out;
}

}  // namespace aedbmls::sim
