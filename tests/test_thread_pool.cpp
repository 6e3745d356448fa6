#include "par/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace aedbmls::par {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForUsesMultipleThreads) {
  ThreadPool pool(2);
  std::mutex mutex;
  std::set<std::thread::id> ids;
  pool.parallel_for(64, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard lock(mutex);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 2u);
}

TEST(ThreadPool, PoolOfOneRunsEveryIndexOnTheCallingThread) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(32);
  pool.parallel_for(ran_on.size(), [&](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    ran_on[i] = std::this_thread::get_id();
  });
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, NestedParallelForOnTheSamePoolCoversEveryIndexOnce) {
  // Two tasks, both busy with outer indices that each wait on an inner
  // loop: a pool whose callers only wait would deadlock here.
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 8;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t i) {
    pool.parallel_for(kInner, [&](std::size_t j) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      hits[i * kInner + j].fetch_add(1);
    });
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, FirstExceptionIsRethrownAndThePoolStillWorks) {
  ThreadPool pool(3);
  std::atomic<int> running{0};
  std::atomic<int> finished{0};
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      running.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      finished.fetch_add(1);
      if (i == 5) throw std::runtime_error("boom");
    });
    FAIL() << "the exception from fn must reach the caller";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "boom");
  }
  // Every claimed index finished before the rethrow.
  EXPECT_EQ(running.load(), finished.load());

  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, AnExceptionStopsFurtherClaims) {
  ThreadPool pool(1);
  std::size_t calls = 0;
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   ++calls;
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  EXPECT_EQ(calls, 6u);
}

TEST(ThreadPool, ThreadCountReported) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

}  // namespace
}  // namespace aedbmls::par
