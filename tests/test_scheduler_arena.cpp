/// Arena semantics of the allocation-free scheduler: dropped callbacks must
/// be destroyed eagerly (no leaked captures), oversized and move-only
/// callbacks must be rejected at compile time, slot storage must be
/// recycled instead of growing without bound, and a snapshot must restore
/// the pending events under their keys.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "sim/core/inline_function.hpp"
#include "sim/core/scheduler.hpp"

namespace aedbmls::sim {
namespace {

TEST(SchedulerArena, ClearDestroysAllPendingCallbacks) {
  Scheduler scheduler;
  auto token = std::make_shared<int>(7);
  for (int i = 0; i < 5; ++i) scheduler.insert(seconds(i), [token] {});
  EXPECT_EQ(token.use_count(), 6);
  scheduler.clear();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(scheduler.empty());
}

TEST(SchedulerArena, SlotsAreRecycledAcrossChurn) {
  Scheduler scheduler;
  // High-water mark of concurrent events is 3; thousands of insert/pop
  // rounds must not grow the arena past it.
  for (int round = 0; round < 2000; ++round) {
    scheduler.insert(seconds(1), [] {});
    scheduler.insert(seconds(2), [] {});
    scheduler.insert(seconds(3), [] {});
    while (!scheduler.empty()) scheduler.pop().callback();
  }
  EXPECT_LE(scheduler.arena_slots(), 3u);
}

TEST(SchedulerArena, ClearRetainsArenaStorage) {
  Scheduler scheduler;
  for (int i = 0; i < 100; ++i) scheduler.insert(seconds(i), [] {});
  const std::size_t slots = scheduler.arena_slots();
  scheduler.clear();
  for (int i = 0; i < 100; ++i) scheduler.insert(seconds(i), [] {});
  EXPECT_EQ(scheduler.arena_slots(), slots);
}

TEST(SchedulerArena, InsertionOrderTiesSurviveClear) {
  Scheduler scheduler;
  scheduler.insert(seconds(1), [] {});
  scheduler.clear();
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    scheduler.insert(seconds(5), [&order, i] { order.push_back(i); });
  }
  while (!scheduler.empty()) scheduler.pop().callback();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SchedulerArena, OversizedCallbacksRejectedAtCompileTime) {
  // `fits_v` is the compile-time gate the InlineFunction constructor
  // static_asserts on: anything over the inline buffer can never reach the
  // heap because it can never be constructed.
  const auto small = [] {};
  static_assert(InlineFunction::fits_v<decltype(small)>);

  std::array<char, InlineFunction::kCapacity + 1> big{};
  const auto oversized = [big] { (void)big; };
  static_assert(!InlineFunction::fits_v<decltype(oversized)>);

  // The largest real callback in the simulator (the broadcast
  // origination in aedb::SimulationContext) must keep fitting.
  struct OriginationSized {
    void* context;
    std::uint64_t source_index;
    std::uint64_t message;
    bool restore;
    void operator()() const {}
  };
  static_assert(InlineFunction::fits_v<OriginationSized>);
}

TEST(SchedulerArena, MoveOnlyCallbacksRejectedAtCompileTime) {
  // A warm-up snapshot copies every pending callback (`clone`), so a
  // callback that cannot be copied must never reach the scheduler.
  const auto move_only = [p = std::make_unique<int>(99)] { (void)*p; };
  static_assert(!InlineFunction::fits_v<decltype(move_only)>);
}

TEST(SchedulerArena, SnapshotRestoresLiveEventsUnderTheirKeys) {
  // A snapshot keeps each pending event's (time, sequence) key and a copy
  // of its callback, so every restore replays the same order, and inserts
  // after a restore continue the saved sequence.
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.insert(seconds(2), [&order] { order.push_back(2); });
  scheduler.insert(seconds(2), [&order] { order.push_back(3); });
  scheduler.insert(seconds(1), [&order] { order.push_back(1); });
  Scheduler::RunState saved;
  scheduler.save(saved);
  EXPECT_EQ(saved.events.size(), 3u);
  EXPECT_EQ(saved.next_seq, 4u);
  for (int round = 0; round < 2; ++round) {
    scheduler.restore(saved);
    EXPECT_EQ(scheduler.size(), 3u);
    scheduler.insert(seconds(2), [&order] { order.push_back(4); });
    order.clear();
    while (!scheduler.empty()) scheduler.pop().callback();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  }
}

TEST(SchedulerArena, EmptyAndSizeTrackLiveEventsOnly) {
  Scheduler scheduler;
  scheduler.insert(seconds(1), [] {});
  scheduler.insert(seconds(2), [] {});
  scheduler.insert(seconds(3), [] {});
  EXPECT_EQ(scheduler.size(), 3u);
  scheduler.pop().callback();
  scheduler.pop().callback();
  EXPECT_EQ(scheduler.size(), 1u);
  EXPECT_EQ(scheduler.next_time(), seconds(3));
  scheduler.pop().callback();
  EXPECT_TRUE(scheduler.empty());
}

}  // namespace
}  // namespace aedbmls::sim
