#pragma once

/// Multi-objective algorithm interface + shared evaluation helpers.

#include <cstdint>
#include <string>
#include <vector>

#include "moo/core/evaluation_engine.hpp"
#include "moo/core/problem.hpp"
#include "moo/core/solution.hpp"

namespace aedbmls::moo {

struct AlgorithmResult {
  std::vector<Solution> front;   ///< final non-dominated set
  std::size_t evaluations = 0;   ///< problem evaluations consumed
  double wall_seconds = 0.0;     ///< wall-clock time of run()
};

class Algorithm {
 public:
  virtual ~Algorithm() = default;

  /// Runs to completion.  Every algorithm is deterministic given (problem,
  /// seed), including under a parallel evaluator: `EvaluationEngine`
  /// partitions populations by index, and `core::AedbMls` runs its workers
  /// in bulk-synchronous epochs reconciled in a fixed order, so results
  /// never depend on thread count or scheduling.
  [[nodiscard]] virtual AlgorithmResult run(const Problem& problem,
                                            std::uint64_t seed) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Evaluates every unevaluated solution in `batch` through `engine`; a null
/// engine falls back to a shared pool-less (sequential) EvaluationEngine, so
/// every population evaluation — serial or parallel — flows through the
/// same batched entry point and per-thread simulator reuse.
void evaluate_population(const Problem& problem, std::vector<Solution>& batch,
                         const EvaluationEngine* engine);

/// Variable bounds of a problem as a vector (operator-friendly form).
[[nodiscard]] std::vector<std::pair<double, double>> bounds_vector(
    const Problem& problem);

}  // namespace aedbmls::moo
