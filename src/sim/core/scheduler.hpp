#pragma once

/// Pending-event set: a binary heap over a recycled slot arena.
///
/// Heap nodes order by (time, sequence number), a strict total order;
/// ties in time break by insertion order, which makes simulations
/// deterministic: two events scheduled for the same instant always run in
/// the order they were scheduled.  A batched event source keeps that order
/// by reserving the sequence numbers its per-event inserts would have
/// taken (`reserve_seq`).  Callbacks live in arena slots (`InlineFunction`,
/// no heap allocation per event) and a heap node names its slot; a popped
/// event's slot goes straight back to the free list.  Nothing takes an
/// event back: every inserted event runs, unless `clear`/`restore` drops
/// the whole pending set.  Steady state allocates nothing: slots, the free
/// list and the heap all reuse their storage.

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/core/inline_function.hpp"
#include "sim/core/time.hpp"

namespace aedbmls::sim {

class Scheduler {
 public:
  using Callback = InlineFunction;

  /// Inserts an event under the next insertion sequence.
  void insert(Time when, Callback callback) {
    insert_keyed(when, next_seq_++, std::move(callback));
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
  void insert_keyed(Time when, std::uint64_t seq, Callback callback);

  /// True when key (when, seq) orders before every pending event.
  [[nodiscard]] bool precedes_all(Time when, std::uint64_t seq) const;

  /// True when no event is pending.
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// Timestamp of the next event.  Requires !empty().
  [[nodiscard]] Time next_time() const;

  /// Extracts the next event.  Requires !empty().
  struct Entry {
    Time when;
    Callback callback;
  };
  Entry pop();

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Drops every pending event and resets the insertion sequence, keeping
  /// slot/heap storage.  This is the per-run reset of pooled simulators:
  /// `restore(RunState{})`.
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
  void restore(const RunState& from);

  /// Slots ever allocated (high-water mark of concurrent events; test/bench
  /// visibility into arena recycling).
  [[nodiscard]] std::size_t arena_slots() const noexcept { return slots_.size(); }

 private:
  /// 24 bytes with no padding, so storing a node writes every byte of it.
  /// The heap operations copy a node whole right after it was stored; with
  /// a 4-byte slot and 4 unwritten padding bytes the event loop ran about
  /// 20% slower (`BM_SimulatorEventChurn`).
  struct HeapNode {
    Time when;
    std::uint64_t seq;
    std::size_t slot;
  };
  /// Max-heap comparator under which the *earliest* node is the top.
  struct Later {
    bool operator()(const HeapNode& a, const HeapNode& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::vector<Callback> slots_;
  std::vector<std::size_t> free_;  ///< recycled slot indices
  std::vector<HeapNode> heap_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace aedbmls::sim
