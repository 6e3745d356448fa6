#pragma once

/// Batched, thread-pooled population evaluation — the simulate-and-score
/// hot path of every generational algorithm in this codebase.
///
/// The engine splits a population into contiguous sub-spans and dispatches
/// each to `Problem::evaluate_batch` as one `par::ThreadPool` task (the
/// pool runs `thread_count()` tasks at once, the calling thread included;
/// a batch may be evaluated from inside another pool task).  Because
/// the sub-spans are disjoint and a solution's result is a pure function of
/// its decision vector (the `Problem` contract), the outcome is **bitwise
/// identical** for any thread count and any chunking — determinism is a
/// property of the partitioning scheme, not of scheduling luck:
///
///  * work is assigned by solution index, never work-stolen mid-solution;
///  * no shared mutable state crosses chunk boundaries;
///  * problems that need randomness inside an evaluation must derive it
///    from per-solution data with counter-based streams (`CounterRng`), as
///    `AedbTuningProblem` does from its (seed, network_index) pairs.
///
/// A pool-less engine (`EvaluationEngine{}`) evaluates sequentially on the
/// calling thread through the same `evaluate_batch` entry point, so batch
/// overrides (per-thread simulator reuse) benefit serial runs too.

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "moo/core/problem.hpp"
#include "moo/core/solution.hpp"
#include "par/thread_pool.hpp"

namespace aedbmls::moo {

class EvaluationEngine {
 public:
  EvaluationEngine() = default;
  /// Spreads batches over `pool`; null evaluates on the calling thread.
  explicit EvaluationEngine(par::ThreadPool* pool) : pool_(pool) {}

  /// The pool batches run on (null when pool-less).  AEDB-MLS walks its
  /// workers on it too.
  [[nodiscard]] par::ThreadPool* pool() const noexcept { return pool_; }

  /// Evaluates every not-yet-evaluated solution in `batch`.  Results are
  /// independent of the engine's thread count (see file comment).
  void evaluate(const Problem& problem, std::span<Solution> batch) const;

  /// Convenience overload for the common population container.
  void evaluate(const Problem& problem, std::vector<Solution>& batch) const {
    evaluate(problem, std::span<Solution>(batch));
  }

  /// Cumulative counters (thread-safe; benches report throughput with them).
  struct Stats {
    std::uint64_t solutions = 0;  ///< solutions actually evaluated
    std::uint64_t batches = 0;    ///< evaluate() calls
    std::uint64_t chunks = 0;     ///< evaluate_batch dispatches
  };
  [[nodiscard]] Stats stats() const noexcept {
    return {solutions_.load(std::memory_order_relaxed),
            batches_.load(std::memory_order_relaxed),
            chunks_.load(std::memory_order_relaxed)};
  }

 private:
  par::ThreadPool* pool_ = nullptr;
  mutable std::atomic<std::uint64_t> solutions_{0};
  mutable std::atomic<std::uint64_t> batches_{0};
  mutable std::atomic<std::uint64_t> chunks_{0};
};

}  // namespace aedbmls::moo
