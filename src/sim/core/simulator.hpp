#pragma once

/// Instance-based discrete-event simulation kernel.
///
/// Unlike ns-3's global `Simulator::`, every `Simulator` here is an
/// independent object so that optimiser threads can each run their own
/// simulations concurrently (the paper evaluates with 96 parallel workers).
/// A Simulator is single-threaded internally: all events of one instance run
/// on the thread calling `run()`.  It holds no randomness: every random
/// stream a run draws comes from its network configuration
/// (`Network::scenario_stream`) and the apps' own streams.

#include <cstdint>

#include "sim/core/scheduler.hpp"
#include "sim/core/time.hpp"

namespace aedbmls::sim {

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// What a run leaves in the simulator: the pending events, the clock and
  /// the executed-event count.  The default is the just-constructed state.
  struct RunState {
    Scheduler::RunState events;
    Time now{};
    std::uint64_t executed = 0;
  };

  /// Copies the run state into `into` (reusing its storage).  Called from
  /// inside an event, it leaves that event out: it has left the scheduler
  /// and is already counted as executed.
  void save(RunState& into) const {
    scheduler_.save(into.events);
    into.now = now_;
    into.executed = executed_;
  }

  /// Replaces the run state with `from`.  Called from inside an event, the
  /// run loop goes on from the restored state once that event returns.
  void restore(const RunState& from) {
    scheduler_.restore(from.events);
    now_ = from.now;
    executed_ = from.executed;
  }

  /// Returns the simulator to its just-constructed state: pending events
  /// dropped, clock at zero, event counter reset.  Scheduler arena storage
  /// is retained, which is what makes pooled simulation contexts
  /// allocation-free in steady state.
  void reset() {
    restore(RunState{});
    stopped_ = false;
  }

  /// Current simulation time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `callback` to run `delay` from now (delay >= 0).
  void schedule(Time delay, Scheduler::Callback callback);

  /// Schedules `callback` at absolute time `when` (>= now).
  void schedule_at(Time when, Scheduler::Callback callback);

  /// Reserves `n` consecutive event sequence numbers (returns the first).
  std::uint64_t reserve_seq(std::uint64_t n) noexcept {
    return scheduler_.reserve_seq(n);
  }

  /// Schedules `callback` at `when` (>= now) under a reserved sequence.
  void schedule_keyed(Time when, std::uint64_t seq,
                      Scheduler::Callback callback);

  /// Lets a running batched event claim its next member, keyed
  /// (when, seq), without a scheduler round trip.  True only when the run
  /// loop would run that member next: the run is not stopped, `when` is
  /// within the current `run_until` bound and the key orders before every
  /// pending event.  Then now() and executed_events() advance exactly as
  /// the run loop would advance them.
  bool claim_next(Time when, std::uint64_t seq);

  /// Runs until the event set is exhausted or `stop()` is called.
  void run();

  /// Runs events with timestamp <= `until`, then sets now() to `until`
  /// (unless stopped earlier or exhausted later than `until`).
  void run_until(Time until);

  /// Stops the run loop after the current event returns.
  void stop() noexcept { stopped_ = true; }

  /// True once stop() was called during the current/last run.
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

  /// Number of pending events.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return scheduler_.size();
  }

  /// Total events executed so far (throughput metric for the benches).
  [[nodiscard]] std::uint64_t executed_events() const noexcept {
    return executed_;
  }

 private:
  Scheduler scheduler_;
  Time now_{};
  Time until_{};  ///< bound of the current run (run: the end of time)
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
};

}  // namespace aedbmls::sim
