#pragma once

/// Selection operators.

#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace aedbmls::moo {

/// Binary tournament by (rank, crowding distance): lower rank wins; ties
/// break on larger crowding; remaining ties are decided by the draw order.
/// Returns an index into the population.
[[nodiscard]] std::size_t tournament_select(const std::vector<std::size_t>& ranks,
                                            const std::vector<double>& crowding,
                                            Xoshiro256& rng);

}  // namespace aedbmls::moo
