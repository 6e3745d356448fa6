#pragma once

/// Experiment scale management for the `expt` layer.
///
/// Every table/figure bench honours three preset scales selected by the
/// `AEDB_SCALE` environment variable or `--scale=` flag:
///   * smoke (default) — minutes on a laptop: fewer evaluation networks,
///     small budgets, few repetitions.  Shapes are preserved, variance is
///     higher.
///   * small — tens of minutes: intermediate.
///   * paper — the paper's §V setup: 10 networks per evaluation,
///     8 populations x 12 threads x 250 evaluations, 30 repetitions.
/// Individual knobs can be overridden by flags (--runs, --evals,
/// --networks).  The workloads swept by an experiment are scenario keys
/// from the `ScenarioCatalog`, selected with `--scenario=`/`--scenarios=`
/// or the `AEDB_SCENARIO` environment variable; the historical
/// `--densities=100,200` spelling still works and maps to the Table II
/// keys `d100,d200`.
///
/// Unknown scale names, unknown scenario keys and malformed numeric
/// overrides are rejected with a `std::invalid_argument` that lists the
/// valid options (benches wrap this via `resolve_scale_or_exit`).

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cli.hpp"

namespace aedbmls::expt {

struct Scale {
  std::string name = "smoke";
  std::size_t networks = 3;   ///< evaluation networks per fitness call
  std::size_t runs = 5;       ///< independent runs per (algorithm, scenario)
  std::size_t evals = 120;    ///< evaluation budget per algorithm run
  std::size_t mls_populations = 2;
  std::size_t mls_threads = 2;
  std::size_t sa_samples = 65;  ///< FAST99 Ns per factor
  /// Scenario-catalog keys swept by the experiment (Table II by default).
  std::vector<std::string> scenarios{"d100", "d200", "d300"};
  std::uint64_t seed = 20130520;  ///< master seed (network ensemble + runs)
  /// Fidelity mode (`--fidelity=` / AEDB_FIDELITY):
  ///   * "full" (default) — every evaluation at full fidelity, exactly
  ///     today's behaviour;
  ///   * "race"           — exact results, cheaper search: optimisers
  ///     screen each candidate move at the scenario's conservative tier and
  ///     promote survivors to full fidelity; admitted fronts are
  ///     byte-identical to a "full" run;
  ///   * a ladder tier name (e.g. "screen") — the whole campaign
  ///     is rebased onto that tier: explicitly approximate, fingerprinted
  ///     distinctly so cached CSVs never mix with exact results.
  std::string fidelity = "full";

  /// Total MLS workers for the configured island layout.
  [[nodiscard]] std::size_t mls_workers() const {
    return mls_populations * mls_threads;
  }

  /// MLS base per-thread budget (floor of evals / workers, at least 1).
  [[nodiscard]] std::size_t mls_evals_per_thread() const {
    return std::max<std::size_t>(1, evals / mls_workers());
  }

  /// Workers that run one extra evaluation so the declared budget is not
  /// silently truncated by the integer division: with evals=120 and 96
  /// workers the base budget is 1 and the 24 remaining evaluations go to
  /// the first 24 workers (flat index order).  Zero when evals < workers —
  /// every worker needs at least one evaluation, so the effective total
  /// (`mls_total_evaluations`) then exceeds the declared budget.
  [[nodiscard]] std::size_t mls_extra_evaluation_workers() const {
    const std::size_t workers = mls_workers();
    return evals >= workers ? evals % workers : 0;
  }

  /// Evaluations MLS actually consumes under this layout (== evals unless
  /// evals < workers, where the per-worker minimum of 1 dominates).
  [[nodiscard]] std::size_t mls_total_evaluations() const {
    return mls_workers() * mls_evals_per_thread() +
           mls_extra_evaluation_workers();
  }
};

/// Resolves the scale from AEDB_SCALE / --scale, then applies flag
/// overrides and validates them.  Throws `std::invalid_argument` (message
/// lists the valid options) on: unknown scale names, unknown scenario keys,
/// empty/negative `--densities`, the sweep spellings mixed with each other
/// (`--scenario` / `--scenarios` / `--densities` name the same sweep), and
/// non-positive --runs/--evals/--networks.
[[nodiscard]] Scale resolve_scale(const CliArgs& args);

/// The preset scale names accepted by `resolve_scale` (smoke/small/paper).
[[nodiscard]] const std::vector<std::string>& scale_names();

}  // namespace aedbmls::expt
