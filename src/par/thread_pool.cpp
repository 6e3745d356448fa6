#include "par/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>

namespace aedbmls::par {

/// One parallel_for's shared state.  Queued helpers hold it by shared_ptr,
/// so a helper that starts after its caller returned still finds a valid
/// counter; it claims an index >= n and never touches `fn`.
struct ThreadPool::Loop {
  Loop(std::size_t count, const std::function<void(std::size_t)>& body)
      : n(count), fn(&body) {}

  /// Claims and runs indices until none is left or `fn` has thrown.
  void run() {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        (*fn)(i);
      } catch (...) {
        const std::lock_guard lock(mutex);
        if (!error) error = std::current_exception();
        // Stop further claims.  An add, not a store, keeps every claim in
        // one release sequence, so the caller's failed claim still sees
        // each helper's registration.
        next.fetch_add(n);
        return;
      }
    }
  }

  /// A pool thread's share.  It registers before its first claim, so a
  /// caller whose own claim failed waits for every index a helper won.
  void help() {
    {
      const std::lock_guard lock(mutex);
      ++helpers;
    }
    run();
    {
      const std::lock_guard lock(mutex);
      --helpers;
    }
    done.notify_all();
  }

  const std::size_t n;
  const std::function<void(std::size_t)>* fn;  ///< the caller's; valid while it waits
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable done;
  std::size_t helpers = 0;  ///< registered helpers still claiming or running
  std::exception_ptr error;
};

ThreadPool::ThreadPool(std::size_t tasks)
    : tasks_(tasks != 0 ? tasks
                        : std::max<std::size_t>(1, std::thread::hardware_concurrency())) {
  threads_.reserve(tasks_ - 1);
  for (std::size_t i = 1; i < tasks_; ++i) {
    // A thread picks up a helper only between tasks: it never runs queued
    // work inside another task, so thread-local state is never re-entered.
    threads_.emplace_back([this] {
      while (auto loop = helpers_.recv()) (*loop)->help();
    });
  }
}

ThreadPool::~ThreadPool() {
  helpers_.close();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Dynamic scheduling over a shared counter: iterations have very uneven
  // cost (a simulation's event count depends on the configuration), so
  // static chunking would leave tasks idle.  The caller is one of the
  // tasks; idle threads join through the queued helpers.
  const auto loop = std::make_shared<Loop>(n, fn);
  for (std::size_t h = 1; h < std::min(n, tasks_); ++h) helpers_.send(loop);
  loop->run();
  // Wait only for indices other threads already claimed — never run other
  // queued work here (no work stealing).
  std::unique_lock lock(loop->mutex);
  loop->done.wait(lock, [&] { return loop->helpers == 0; });
  if (loop->error) std::rethrow_exception(loop->error);
}

}  // namespace aedbmls::par
