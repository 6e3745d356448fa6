#pragma once

/// Generational-distance family.
///
/// The paper's Eq. 3 (which it calls "inverted generational distance")
/// measures sqrt(sum of squared distances)/n *from the found front to the
/// reference front* — Van Veldhuizen's GD formula.  The benches use
/// `paper_igd` (Eq. 3 verbatim) and EXPERIMENTS.md notes the naming.

#include <vector>

#include "moo/core/solution.hpp"

namespace aedbmls::moo {

/// Distance from each point of `from` to its nearest point in `to`,
/// aggregated as sqrt(sum d_i^2) / |from|  (Eq. 3 of the paper).
[[nodiscard]] double generational_distance(const std::vector<Solution>& from,
                                           const std::vector<Solution>& to);

/// The paper's "IGD": Eq. 3 applied from the found front to the reference.
[[nodiscard]] inline double paper_igd(const std::vector<Solution>& front,
                                      const std::vector<Solution>& reference) {
  return generational_distance(front, reference);
}

}  // namespace aedbmls::moo
