#pragma once

/// Pending-event set: a binary heap over a recycled slot arena.
///
/// Heap nodes order by (time, sequence number), a strict total order;
/// ties in time break by insertion order, which makes simulations
/// deterministic: two events scheduled for the same instant always run in
/// the order they were scheduled.  A batched event source keeps that order
/// by reserving the sequence numbers its per-event inserts would have
/// taken (`reserve_seq`).  Callbacks live in generation-tagged arena slots
/// (`InlineFunction`, no heap allocation per event); an `EventId` encodes
/// (slot, generation), so cancellation is an O(1) generation bump — stale
/// heap nodes are skipped at pop time, and a cancelled id that hits a
/// recycled slot is a guaranteed no-op because the generation no longer
/// matches.  Steady state allocates nothing: slots, the free list and the
/// heap all reuse their storage.

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/core/event.hpp"
#include "sim/core/inline_function.hpp"
#include "sim/core/time.hpp"

namespace aedbmls::sim {

class Scheduler {
 public:
  using Callback = InlineFunction;

  /// Inserts an event under the next insertion sequence; returns its id.
  EventId insert(Time when, Callback callback) {
    return insert_keyed(when, next_seq_++, std::move(callback));
  }

  /// Hands out `n` consecutive insertion sequence numbers (returns the
  /// first).  A batched event source reserves the numbers its per-event
  /// inserts would have taken, then runs its members under exactly those
  /// keys (`insert_keyed`, `precedes_all`).
  std::uint64_t reserve_seq(std::uint64_t n) noexcept {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// Inserts an event under a sequence number from `reserve_seq`.
  EventId insert_keyed(Time when, std::uint64_t seq, Callback callback);

  /// True when key (when, seq) orders before every pending event.
  [[nodiscard]] bool precedes_all(Time when, std::uint64_t seq);

  /// Marks an event cancelled.  Safe to call with ids already executed or
  /// cancelled (no effect).  Returns true if the id was pending.
  bool cancel(EventId id);

  /// True when no runnable (non-cancelled) event remains.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Timestamp of the next runnable event.  Requires !empty().
  [[nodiscard]] Time next_time();

  /// Extracts the next runnable event.  Requires !empty().
  struct Entry {
    Time when;
    EventId id;
    Callback callback;
  };
  Entry pop();

  /// Number of pending (non-cancelled) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Drops every pending event and resets the insertion sequence, keeping
  /// slot/heap storage (and slot generations, so stale ids from before the
  /// clear still cancel as no-ops).  This is the per-run reset of pooled
  /// simulators: `restore(RunState{})`.
  void clear() noexcept;

  /// What a run leaves in the scheduler: the pending events, under their
  /// (time, sequence) keys, and the next insertion sequence.  A snapshot
  /// keeps copies of the callbacks (`InlineFunction::clone`), so it can
  /// be restored any number of times into the scheduler that took it.
  struct RunState {
    struct Event {
      Time when;
      std::uint64_t seq;
      Callback callback;
    };
    std::vector<Event> events;  ///< in no particular order
    std::uint64_t next_seq = 1;
  };

  /// Copies the pending events and the sequence counter into `into`
  /// (reusing its storage).
  void save(RunState& into) const;

  /// Replaces the pending events and the sequence counter with `from`'s.
  /// Event ids issued before do not carry over: the restored events run
  /// under their keys but cannot be cancelled by an old id.
  void restore(const RunState& from);

  /// Slots ever allocated (high-water mark of concurrent events; test/bench
  /// visibility into arena recycling).
  [[nodiscard]] std::size_t arena_slots() const noexcept { return slots_.size(); }

 private:
  struct Slot {
    std::uint32_t generation = 0;
    Callback callback;
  };
  struct HeapNode {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  /// Max-heap comparator under which the *earliest* node is the top.
  struct Later {
    bool operator()(const HeapNode& a, const HeapNode& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  static constexpr EventId encode(std::uint32_t slot, std::uint32_t generation) noexcept {
    return EventId((static_cast<std::uint64_t>(generation) << 32) |
                   (static_cast<std::uint64_t>(slot) + 1));
  }

  /// Retires the slot behind the current heap top and removes the node.
  void pop_top_node() noexcept;
  /// Skips heap nodes whose slot generation moved on (cancelled events).
  void drop_stale_top() noexcept;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< recycled slot indices
  std::vector<HeapNode> heap_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace aedbmls::sim
