#include "sim/core/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace aedbmls::sim {
namespace {

TEST(Scheduler, PopsInTimeOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.insert(seconds(3), [&] { order.push_back(3); });
  scheduler.insert(seconds(1), [&] { order.push_back(1); });
  scheduler.insert(seconds(2), [&] { order.push_back(2); });
  while (!scheduler.empty()) scheduler.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    scheduler.insert(seconds(5), [&order, i] { order.push_back(i); });
  }
  while (!scheduler.empty()) scheduler.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, SizeCountsPendingOnly) {
  Scheduler scheduler;
  scheduler.insert(seconds(1), [] {});
  scheduler.insert(seconds(2), [] {});
  EXPECT_EQ(scheduler.size(), 2u);
  scheduler.pop().callback();
  EXPECT_EQ(scheduler.size(), 1u);
  EXPECT_EQ(scheduler.next_time(), seconds(2));
}

TEST(Scheduler, ManyEventsStaySorted) {
  Scheduler scheduler;
  // Deterministic pseudo-random insert order.
  std::uint64_t state = 12345;
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    scheduler.insert(nanoseconds(static_cast<std::int64_t>(state % 1000000)),
                     [] {});
  }
  Time last{};
  while (!scheduler.empty()) {
    const auto entry = scheduler.pop();
    EXPECT_GE(entry.when, last);
    last = entry.when;
  }
}

}  // namespace
}  // namespace aedbmls::sim
