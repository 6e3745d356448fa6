#pragma once

/// What one workload run reports, plus the shared measurement helpers:
/// medians/quantiles, work counters read from the tuning problem, output
/// checks on fronts, and the per-layer numbers every workload derives from
/// its traced repetitions.

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "aedb/tuning_problem.hpp"
#include "core/mls.hpp"
#include "moo/core/solution.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::size_t min_reps = 3;  ///< repetitions run whatever `seconds` says
  bool trace = false;
  std::string trace_out;     ///< Chrome trace JSON path ("" = none)
  std::string digests_path;  ///< pinned campaign digests
  std::string commit;        ///< run metadata, passed in by run.py
  std::string source_digest;
};

/// One workload run: the metrics by name, the work counters split into
/// those that must repeat exactly and those that depend on the trajectory,
/// and every failed output check.
struct Outcome {
  std::uint64_t attempted = 0;  ///< operations: candidates, or cells
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> metrics;
  std::map<std::string, std::uint64_t> exact;
  std::map<std::string, std::uint64_t> trajectory;
  std::vector<std::string> flags;  ///< reconciliation gaps (traced run)
  std::map<std::string, std::string> info;

  /// Records a failed check over `operations` operations.
  void fail(std::uint64_t operations, const std::string& why);
};

[[nodiscard]] double median(std::vector<double> values);
/// Space-separated values, for the run metadata.
[[nodiscard]] std::string join(const std::vector<double>& values);
/// Linear-interpolated quantile, `q` in [0, 1]; 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Machine speed right now, from work independent of the program under
/// test: `threads` threads each churn a fixed binary heap (pop the minimum,
/// push a pseudo-random successor) for `ms` milliseconds.  Heap operations
/// per second per thread.
[[nodiscard]] double calibration_rate(std::size_t threads, int ms);

/// `calibration_rate` on the reference machine (4-core x86-64 VM, GCC 12
/// Release build).  Timed end-to-end metrics are normalised to it.
inline constexpr double kReferenceRate = 6.0e6;

/// Machine speed around each measured timed phase.  Reported times are
/// normalised to the reference machine: seconds x speed, rates / speed,
/// with speed the calibration rate (geometric mean of before and after)
/// over `kReferenceRate`.  A shared host's clock speed was seen to drift by
/// 10-50 % between runs minutes apart; normalising takes most of that out
/// of the comparison between runs.  The raw values go to the run metadata.
class Speed {
 public:
  explicit Speed(std::size_t threads) : threads_(threads) {}
  void before() { before_ = calibration_rate(threads_, kCalibrationMs); }
  void after() {
    factors_.push_back(std::sqrt(before_ * calibration_rate(threads_, kCalibrationMs)) /
                       kReferenceRate);
  }
  /// Speed factor of the latest measured repetition.
  [[nodiscard]] double last() const { return factors_.back(); }
  [[nodiscard]] const std::vector<double>& factors() const { return factors_; }

 private:
  static constexpr int kCalibrationMs = 200;
  std::size_t threads_;
  double before_ = kReferenceRate;
  std::vector<double> factors_;
};

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// Tuning-problem work counters (full tier and the screening tier).
struct Work {
  std::uint64_t evals = 0;
  std::uint64_t runs = 0;
  std::uint64_t events = 0;
  std::uint64_t screen_evals = 0;
  std::uint64_t screen_runs = 0;
  std::uint64_t screen_events = 0;

  [[nodiscard]] static Work of(const aedb::AedbTuningProblem& problem);
  [[nodiscard]] Work operator-(const Work& before) const;
};

/// Empty string when no member dominates another and the members are all
/// feasible (or, when the run found no feasible point, all infeasible);
/// otherwise what is wrong.
[[nodiscard]] std::string check_front(const std::vector<moo::Solution>& front);

/// True when both fronts hold the same points bit for bit, in order.
[[nodiscard]] bool fronts_identical(const std::vector<moo::Solution>& a,
                                    const std::vector<moo::Solution>& b);

/// The Table II default AEDB configuration, simulated on every evaluation
/// network of `problem` through a fresh workspace (builds the ensemble's
/// pooled contexts).  Part of every workload's set-up, and a check: the
/// result must be bitwise identical in every repetition.
[[nodiscard]] aedb::AedbTuningProblem::Detail reference_evaluation(
    const aedb::AedbTuningProblem& problem);

/// FNV-1a 64 of `text`.
[[nodiscard]] std::uint64_t fnv1a(const std::string& text);

/// Adds `s` into `into`, counter by counter.
void accumulate(aedbmls::core::AedbMls::Stats& into, const aedbmls::core::AedbMls::Stats& s);

/// The `core.*` per-layer metrics of a repetition's AEDB-MLS runs: their
/// summed `stats`, each run's wall time, and the share of the runs' worker
/// capacity (workers x wall) spent inside evaluations.
void add_core_metrics(std::map<std::string, double>& metrics,
                      const aedbmls::core::AedbMls::Stats& stats,
                      const std::vector<double>& run_walls, double eval_busy_share);

/// Per-layer numbers derived from the traced repetitions' evaluation logs
/// and spans, shared by all workloads: the `aedb.*` evaluation timings,
/// the pooling/moo/sim probes and the reconciliation checks.  `work` is the
/// timed phase's work per scenario (index as in the log); `fronts` the
/// fronts the repetition produced.
struct LayerInputs {
  const EvalLog* log = nullptr;
  std::vector<Work> work;  ///< per log scenario
  std::vector<std::vector<moo::Solution>> fronts;
  std::size_t threads = 1;  ///< concurrent evaluating threads of the workload
};
void add_layer_metrics(const LayerInputs& inputs,
                       std::map<std::string, double>& metrics,
                       std::vector<std::string>& flags,
                       std::vector<std::string>& failures);

/// Share of `root`'s wall time covered by the union of its direct children.
[[nodiscard]] double attributed_share(const std::vector<Span>& spans,
                                      std::int64_t root);

/// Per-name median over repetitions (names missing from a repetition
/// contribute no value).
[[nodiscard]] std::map<std::string, double> median_of(
    const std::vector<std::map<std::string, double>>& reps);

}  // namespace perfbench
