#pragma once

/// Fixed-size, caller-runs thread pool with one operation: a blocking
/// parallel_for.
///
/// The optimiser uses this for the shared-memory half of the hybrid model:
/// campaign cells, population batches (NSGA-II / CellDE) and the AEDB-MLS
/// epoch walks all share one pool.  `ThreadPool(n)` runs at most `n` tasks
/// at once, the calling thread included: it starts `n - 1` threads, and
/// every `parallel_for` caller claims indices alongside them.  A caller then
/// waits only for indices other threads have already claimed, never runs
/// other queued work, so `fn` may itself call `parallel_for` on the same
/// pool without deadlock.

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "par/mailbox.hpp"

namespace aedbmls::par {

class ThreadPool {
 public:
  /// Runs `tasks` tasks at once on `tasks - 1` threads plus each caller
  /// (0 = one task per hardware thread).
  explicit ThreadPool(std::size_t tasks = 0);

  /// Joins the threads; helpers still queued find nothing left to claim.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for i in [0, n) on the calling thread and the pool's idle
  /// threads, and returns once every claimed index has finished.  `fn` must
  /// be safe to invoke concurrently and may call `parallel_for` itself.  The
  /// first exception `fn` throws stops further claims and is rethrown.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Tasks that run at once, the calling thread included.
  [[nodiscard]] std::size_t thread_count() const noexcept { return tasks_; }

 private:
  struct Loop;

  std::size_t tasks_;
  Mailbox<std::shared_ptr<Loop>> helpers_;
  std::vector<std::thread> threads_;
};

}  // namespace aedbmls::par
