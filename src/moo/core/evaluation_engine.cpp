#include "moo/core/evaluation_engine.hpp"

#include <algorithm>

namespace aedbmls::moo {
namespace {

/// Target tasks per pool thread (load-balancing oversubscription).
constexpr std::size_t kTasksPerThread = 4;

}  // namespace

void EvaluationEngine::evaluate(const Problem& problem,
                                std::span<Solution> batch) const {
  batches_.fetch_add(1, std::memory_order_relaxed);
  std::size_t pending = 0;
  for (const Solution& s : batch) pending += s.evaluated ? 0 : 1;
  if (pending == 0) return;
  solutions_.fetch_add(pending, std::memory_order_relaxed);

  if (pool_ == nullptr || pool_->thread_count() <= 1 || pending == 1) {
    chunks_.fetch_add(1, std::memory_order_relaxed);
    problem.evaluate_batch(batch);
    return;
  }

  // Contiguous index-based chunks: determinism needs disjoint sub-spans,
  // load balance wants more chunks than threads (evaluation cost varies
  // with the candidate, e.g. broadcast reach in the AEDB simulations).
  const std::size_t target_tasks = kTasksPerThread * pool_->thread_count();
  const std::size_t chunk = (batch.size() + target_tasks - 1) / target_tasks;
  const std::size_t chunk_count = (batch.size() + chunk - 1) / chunk;
  chunks_.fetch_add(chunk_count, std::memory_order_relaxed);

  pool_->parallel_for(chunk_count, [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(batch.size(), begin + chunk);
    problem.evaluate_batch(batch.subspan(begin, end - begin));
  });
}

}  // namespace aedbmls::moo
