#include "sim/core/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace aedbmls::sim {

void Scheduler::insert_keyed(Time when, std::uint64_t seq, Callback callback) {
  std::size_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = slots_.size();
    slots_.emplace_back();
  }
  slots_[slot] = std::move(callback);
  heap_.push_back(HeapNode{when, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool Scheduler::precedes_all(Time when, std::uint64_t seq) const {
  return heap_.empty() || Later{}(heap_.front(), HeapNode{when, seq, 0});
}

Time Scheduler::next_time() const {
  AEDB_REQUIRE(!heap_.empty(), "next_time on empty scheduler");
  return heap_.front().when;
}

Scheduler::Entry Scheduler::pop() {
  AEDB_REQUIRE(!heap_.empty(), "pop on empty scheduler");
  const std::size_t slot = heap_.front().slot;
  Entry entry{heap_.front().when, std::move(slots_[slot])};
  free_.push_back(slot);
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  return entry;
}

void Scheduler::clear() noexcept {
  for (const HeapNode& node : heap_) {
    slots_[node.slot].reset();
    free_.push_back(node.slot);
  }
  heap_.clear();
  next_seq_ = 1;
}

void Scheduler::save(RunState& into) const {
  into.events.clear();
  into.events.reserve(heap_.size());
  for (const HeapNode& node : heap_) {
    into.events.push_back({node.when, node.seq, slots_[node.slot].clone()});
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
