#include "sim/core/simulator.hpp"

#include <cstdint>
#include <limits>
#include <utility>

#include "common/assert.hpp"

namespace aedbmls::sim {

void Simulator::schedule(Time delay, Scheduler::Callback callback) {
  AEDB_REQUIRE(delay >= Time{}, "negative delay");
  scheduler_.insert(now_ + delay, std::move(callback));
}

void Simulator::schedule_at(Time when, Scheduler::Callback callback) {
  AEDB_REQUIRE(when >= now_, "scheduling into the past");
  scheduler_.insert(when, std::move(callback));
}

void Simulator::schedule_keyed(Time when, std::uint64_t seq,
                               Scheduler::Callback callback) {
  AEDB_REQUIRE(when >= now_, "scheduling into the past");
  scheduler_.insert_keyed(when, seq, std::move(callback));
}

bool Simulator::claim_next(Time when, std::uint64_t seq) {
  if (stopped_ || when > until_ || !scheduler_.precedes_all(when, seq)) {
    return false;
  }
  now_ = when;
  ++executed_;
  return true;
}

void Simulator::run() {
  stopped_ = false;
  until_ = Time::from_ns(std::numeric_limits<std::int64_t>::max());
  while (!scheduler_.empty() && !stopped_) {
    auto entry = scheduler_.pop();
    AEDB_REQUIRE(entry.when >= now_, "event ordering violated");
    now_ = entry.when;
    ++executed_;
    entry.callback();
  }
}

void Simulator::run_until(Time until) {
  stopped_ = false;
  until_ = until;
  while (!scheduler_.empty() && !stopped_) {
    if (scheduler_.next_time() > until) break;
    auto entry = scheduler_.pop();
    now_ = entry.when;
    ++executed_;
    entry.callback();
  }
  if (!stopped_ && now_ < until) now_ = until;
}

}  // namespace aedbmls::sim
