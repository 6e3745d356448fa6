#include "moo/operators/selection.hpp"

#include "common/assert.hpp"

namespace aedbmls::moo {

std::size_t tournament_select(const std::vector<std::size_t>& ranks,
                              const std::vector<double>& crowding,
                              Xoshiro256& rng) {
  AEDB_REQUIRE(!ranks.empty() && ranks.size() == crowding.size(),
               "tournament inputs misaligned");
  const std::size_t a = rng.uniform_int(ranks.size());
  const std::size_t b = rng.uniform_int(ranks.size());
  if (ranks[a] != ranks[b]) return ranks[a] < ranks[b] ? a : b;
  if (crowding[a] != crowding[b]) return crowding[a] > crowding[b] ? a : b;
  return a;
}

}  // namespace aedbmls::moo
