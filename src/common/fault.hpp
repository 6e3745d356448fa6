#pragma once

// Seeded, deterministic fault injection for chaos drills.
//
// A *fault plan* names a set of fault sites and, per site, a trigger that
// decides which occurrences fire.  Code under test declares sites inline:
//
//   if (aedbmls::fault::fire("io.cache.write_fail")) { /* inject the fault */ }
//
//   double stall_ms = 0.0;
//   if (aedbmls::fault::fire("cell.stall_ms", stall_ms)) { sleep(stall_ms); }
//
// Plans come from one spec string (the campaign benches' `--fault-plan=SPEC`):
//
//   spec    := entry (';' entry)*
//   entry   := 'seed=' u64
//            | site '=' trigger (',' 'value=' number)?
//   trigger := 'nth:' N        fire exactly on the Nth occurrence (1-based)
//            | 'after:' N      fire on every occurrence past the Nth
//            | 'every:' K      fire on occurrences K, 2K, 3K, ...
//            | 'prob:' P       fire with probability P per occurrence,
//                              decided by a counter-keyed hash of the plan
//                              seed (NOT wall-clock randomness)
//            | 'always'
//            | 'off'
//
// Example: "seed=7;io.journal.torn_tail=nth:6;cell.stall_ms=always,value=1500"
//
// Determinism contract: for a given spec string, whether occurrence #n of a
// site fires is a pure function of (seed, site, n).  Occurrence numbers are
// per-site atomic counters, so the fire/no-fire *sequence per site* replays
// exactly across runs even when sites are hit from many threads; which
// thread draws which occurrence may of course vary.
//
// Cost when inactive: `fire()` is an inline relaxed atomic load of one bool.
//
// Site names are validated against the known-site registry at configure
// time so a typo in a plan fails loudly instead of silently never firing.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace aedbmls::fault {

namespace detail {
extern std::atomic<bool> g_active;
bool fire_slow(std::string_view site, double* value);
}  // namespace detail

/// Installs the plan described by `spec`; an empty spec clears any active
/// plan.  Throws std::invalid_argument (with the offending entry and the
/// grammar) on unknown sites or malformed triggers.  Resets all occurrence
/// counters, so the injection sequence replays from the start.
void configure(const std::string& spec);

/// Removes any active plan and resets all counters.
void clear();

/// True while a plan with at least one non-off site is installed.
[[nodiscard]] inline bool active() noexcept {
  return detail::g_active.load(std::memory_order_relaxed);
}

/// Should this occurrence of `site` fail?  Counts one occurrence and
/// consults the site's trigger.  Unconfigured sites always return false.
[[nodiscard]] inline bool fire(std::string_view site) {
  if (!detail::g_active.load(std::memory_order_relaxed)) return false;
  return detail::fire_slow(site, nullptr);
}

/// As above; additionally writes the site's configured `value=` parameter
/// (default 0.0) into `value` when the site fires.
[[nodiscard]] inline bool fire(std::string_view site, double& value) {
  if (!detail::g_active.load(std::memory_order_relaxed)) return false;
  return detail::fire_slow(site, &value);
}

/// Canonical round-trippable spec of the active plan ("" when inactive):
/// `configure(describe())` reinstalls an identical plan (counters reset).
[[nodiscard]] std::string describe();

/// Occurrence count recorded for `site` under the active plan (0 when the
/// site is unconfigured or no plan is active).
[[nodiscard]] std::uint64_t hits(std::string_view site);

/// RAII plan for tests: installs `spec`, restores the previous plan (and
/// thereby resets counters) on destruction.
class ScopedPlan {
 public:
  explicit ScopedPlan(const std::string& spec);
  ~ScopedPlan();
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;

 private:
  std::string previous_;
};

}  // namespace aedbmls::fault
