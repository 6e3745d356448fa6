/// Arena/generation semantics of the allocation-free scheduler: recycled
/// slots must make stale `EventId`s harmless, cancelled callbacks must be
/// destroyed eagerly (no leaked captures), oversized callbacks must be
/// rejected at compile time, slot storage must be recycled instead of
/// growing without bound, and a snapshot must restore the pending events
/// under their keys.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "sim/core/inline_function.hpp"
#include "sim/core/scheduler.hpp"

namespace aedbmls::sim {
namespace {

TEST(SchedulerArena, CancelAfterRecycleIsNoOp) {
  Scheduler scheduler;
  const EventId stale = scheduler.insert(seconds(1), [] {});
  EXPECT_TRUE(scheduler.cancel(stale));
  // The freed slot is recycled by the next insert; the stale id's
  // generation no longer matches, so cancelling it again must not disturb
  // the new occupant.
  bool ran = false;
  scheduler.insert(seconds(2), [&] { ran = true; });
  EXPECT_EQ(scheduler.arena_slots(), 1u);  // same slot, reused
  EXPECT_FALSE(scheduler.cancel(stale));
  EXPECT_EQ(scheduler.size(), 1u);
  scheduler.pop().callback();
  EXPECT_TRUE(ran);
}

TEST(SchedulerArena, CancelAfterExecuteIsNoOp) {
  Scheduler scheduler;
  const EventId id = scheduler.insert(seconds(1), [] {});
  scheduler.pop().callback();
  EXPECT_FALSE(scheduler.cancel(id));
}

TEST(SchedulerArena, StaleIdAcrossClearIsNoOp) {
  Scheduler scheduler;
  const EventId before = scheduler.insert(seconds(1), [] {});
  scheduler.clear();
  EXPECT_TRUE(scheduler.empty());
  EXPECT_FALSE(scheduler.cancel(before));
  // Even once the slot is re-occupied after the clear.
  scheduler.insert(seconds(1), [] {});
  EXPECT_FALSE(scheduler.cancel(before));
  EXPECT_EQ(scheduler.size(), 1u);
}

TEST(SchedulerArena, CancelDestroysCallbackEagerly) {
  Scheduler scheduler;
  auto token = std::make_shared<int>(42);
  const EventId id = scheduler.insert(seconds(1), [token] {});
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(scheduler.cancel(id));
  // Lazy-cancel schemes keep the entry (and its captures) alive until the
  // heap drains past it; the arena must release captures immediately.
  EXPECT_EQ(token.use_count(), 1);
}

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

TEST(SchedulerArena, MoveOnlyCallbacksAreSupported) {
  Scheduler scheduler;
  auto payload = std::make_unique<int>(99);
  int seen = 0;
  scheduler.insert(seconds(1),
                   [p = std::move(payload), &seen] { seen = *p; });
  scheduler.pop().callback();
  EXPECT_EQ(seen, 99);
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

TEST(SchedulerArena, SnapshotRestoresLiveEventsUnderTheirKeys) {
  // A snapshot keeps each live event's (time, sequence) key and a copy of
  // its callback, so every restore replays the same order, and inserts
  // after a restore continue the saved sequence.
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.insert(seconds(2), [&order] { order.push_back(2); });
  const EventId cancelled =
      scheduler.insert(seconds(1), [&order] { order.push_back(-1); });
  scheduler.insert(seconds(2), [&order] { order.push_back(3); });
  scheduler.insert(seconds(1), [&order] { order.push_back(1); });
  scheduler.cancel(cancelled);
  Scheduler::RunState saved;
  scheduler.save(saved);
  EXPECT_EQ(saved.events.size(), 3u);
  EXPECT_EQ(saved.next_seq, 5u);
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
  const EventId a = scheduler.insert(seconds(1), [] {});
  const EventId b = scheduler.insert(seconds(2), [] {});
  scheduler.insert(seconds(3), [] {});
  EXPECT_EQ(scheduler.size(), 3u);
  scheduler.cancel(a);
  scheduler.cancel(b);
  EXPECT_EQ(scheduler.size(), 1u);
  EXPECT_EQ(scheduler.next_time(), seconds(3));
  scheduler.pop().callback();
  EXPECT_TRUE(scheduler.empty());
}

}  // namespace
}  // namespace aedbmls::sim
