#pragma once

/// Spread (diversity) indicator: Zhou et al.'s generalised spread Δ*, the
/// extension of Deb's Δ (Eq. 4 of the paper) used by jMetal for 3+
/// objectives (nearest-neighbour distances replace consecutive ones); this
/// is what the paper's 3-objective comparison effectively computes.
/// Zero means ideally distributed; larger is worse.

#include <vector>

#include "moo/core/solution.hpp"

namespace aedbmls::moo {

/// Generalised spread Δ* for any objective count (>= 2).
[[nodiscard]] double generalized_spread(const std::vector<Solution>& front,
                                        const std::vector<Solution>& reference);

}  // namespace aedbmls::moo
