#pragma once

/// Pareto-front persistence and merging.

#include <string>
#include <vector>

#include "moo/core/solution.hpp"

namespace aedbmls::moo {

/// Serialises a front as CSV: x0..x{d-1}, f0..f{m-1}, cv.
[[nodiscard]] std::string front_to_csv(const std::vector<Solution>& front);

/// Sorts a front into the canonical order: objectives, then constraint
/// violation, then the decision vector, all lexicographic.  An archive's
/// member order records its eviction history; sorting makes two runs that
/// admitted the same point *set* serialise byte-identically (the
/// race==full contract, and `--front-out` artifacts).
void sort_canonical(std::vector<Solution>& front);

/// Merges several fronts into their combined non-dominated set — the paper's
/// "Reference Pareto front" construction (best of all runs/algorithms).
[[nodiscard]] std::vector<Solution> merge_fronts(
    const std::vector<std::vector<Solution>>& fronts);

}  // namespace aedbmls::moo
