#include "sim/core/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace aedbmls::sim {

EventId Scheduler::insert_keyed(Time when, std::uint64_t seq, Callback callback) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].callback = std::move(callback);
  heap_.push_back(HeapNode{when, seq, slot, slots_[slot].generation});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return encode(slot, slots_[slot].generation);
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint64_t index = (id.raw() & 0xffffffffULL) - 1;
  const auto generation = static_cast<std::uint32_t>(id.raw() >> 32);
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  // A generation mismatch means the event already ran, was already
  // cancelled, or its slot was recycled by a newer event — all no-ops.
  if (slot.generation != generation) return false;
  slot.callback.reset();
  ++slot.generation;  // invalidates the id and the stale heap node
  free_.push_back(static_cast<std::uint32_t>(index));
  --live_;
  return true;
}

void Scheduler::drop_stale_top() noexcept {
  while (!heap_.empty() &&
         slots_[heap_.front().slot].generation != heap_.front().generation) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

void Scheduler::pop_top_node() noexcept {
  Slot& slot = slots_[heap_.front().slot];
  slot.callback.reset();
  ++slot.generation;
  free_.push_back(heap_.front().slot);
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  --live_;
}

bool Scheduler::precedes_all(Time when, std::uint64_t seq) {
  drop_stale_top();
  return heap_.empty() || Later{}(heap_.front(), HeapNode{when, seq, 0, 0});
}

Time Scheduler::next_time() {
  drop_stale_top();
  AEDB_REQUIRE(!heap_.empty(), "next_time on empty scheduler");
  return heap_.front().when;
}

Scheduler::Entry Scheduler::pop() {
  drop_stale_top();
  AEDB_REQUIRE(!heap_.empty(), "pop on empty scheduler");
  const HeapNode& top = heap_.front();
  Entry entry{top.when, encode(top.slot, top.generation),
              std::move(slots_[top.slot].callback)};
  pop_top_node();
  return entry;
}

void Scheduler::clear() noexcept {
  for (const HeapNode& node : heap_) {
    Slot& slot = slots_[node.slot];
    if (slot.generation != node.generation) continue;  // already cancelled
    slot.callback.reset();
    ++slot.generation;
    free_.push_back(node.slot);
  }
  heap_.clear();
  live_ = 0;
  next_seq_ = 1;
}

void Scheduler::save(RunState& into) const {
  into.events.clear();
  into.events.reserve(live_);
  for (const HeapNode& node : heap_) {
    const Slot& slot = slots_[node.slot];
    if (slot.generation != node.generation) continue;  // cancelled
    into.events.push_back({node.when, node.seq, slot.callback.clone()});
  }
  into.next_seq = next_seq_;
}

void Scheduler::restore(const RunState& from) {
  clear();
  for (const RunState::Event& event : from.events) {
    insert_keyed(event.when, event.seq, event.callback.clone());
  }
  next_seq_ = from.next_seq;
}

}  // namespace aedbmls::sim
