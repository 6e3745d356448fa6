#pragma once

/// Initial node placement helpers.

#include <vector>

#include "common/rng.hpp"
#include "sim/geom/vec2.hpp"

namespace aedbmls::sim {

/// `count` positions i.i.d. uniform in [0,width] x [0,height], drawn from a
/// counter-based stream so a (seed, network) pair always yields the same
/// topology.
[[nodiscard]] std::vector<Vec2> uniform_positions(const CounterRng& stream,
                                                  std::size_t count, double width,
                                                  double height);

}  // namespace aedbmls::sim
