#pragma once

/// ExperimentPlan + ExperimentDriver — the declarative experiment grid.
///
/// A plan names the full algorithms x scenarios x runs grid of a campaign
/// (the paper's §VI evaluation is `{CellDE, NSGAII, AEDB-MLS} x Table II x
/// 30`).  The driver shards the independent cells across a
/// `par::ThreadPool` with deterministic per-cell seeding, then — after a
/// barrier — builds the per-scenario reference fronts (the paper's
/// normalisation protocol: non-dominated union of every run of every
/// algorithm) and the normalised quality indicators.  Cell seeds and the
/// post-barrier reduction depend only on the plan, never on scheduling, so
/// the indicator samples are bitwise-identical for any driver worker count
/// (regression-tested at 1/4/12 in tests/test_experiment_driver.cpp).
///
/// With `Options::use_cache` (the default; --no-cache turns it off) the
/// completed cells are kept in the campaign store under `results/`, a cell
/// log keyed by the plan fingerprint (expt/manifest.hpp): a run replays the
/// store's verified prefix, runs only the missing cells and rewrites the
/// store whole, next to the write-only indicator CSV.  A hit therefore
/// returns the fronts and the telemetry too.  `run_shard` runs a strided
/// subset of the grid the same way, with its shard file as the store.

#include <memory>
#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "expt/algorithm_registry.hpp"
#include "expt/scale.hpp"
#include "expt/scenario_catalog.hpp"
#include "moo/core/solution.hpp"

namespace aedbmls::expt {

class CampaignStore;  // expt/manifest.hpp

/// One (algorithm, scenario, run) outcome.
struct RunRecord {
  std::string algorithm;
  std::string scenario;  ///< ScenarioCatalog key, e.g. "d200", "sparse-wide"
  std::uint64_t run_seed = 0;
  std::vector<moo::Solution> front;
  std::size_t evaluations = 0;
  double wall_seconds = 0.0;
  /// Per-cell telemetry: counters (`cells`, `evaluations`, `sim.runs`,
  /// `sim.events`, `front.points`), wall-time gauges (`cell.wall_s`,
  /// `scenario.<key>.wall_s`) and the `front.size` histogram.  Rides the
  /// cell logs (expt/manifest.hpp) and merges associatively campaign-wide.
  telemetry::Snapshot telemetry;
};

/// Normalised quality indicators of one run against the per-scenario
/// reference front.
struct IndicatorSample {
  std::string algorithm;
  std::string scenario;
  std::uint64_t run_seed = 0;
  /// Points in the run's front.  0 means the run produced nothing — the
  /// indicator fields are then placeholders (zeros), not scores; consumers
  /// that average indicators should skip such samples.
  std::size_t front_size = 0;
  double hypervolume = 0.0;
  double igd = 0.0;     ///< the paper's Eq. 3
  double spread = 0.0;  ///< generalised spread (3 objectives)
};

/// The declared grid: every algorithm on every scenario, `scale.runs`
/// independent runs each.
struct ExperimentPlan {
  std::vector<std::string> algorithms;
  std::vector<std::string> scenarios;
  Scale scale;

  /// Plan for the given algorithms over the scale's scenario sweep.
  [[nodiscard]] static ExperimentPlan of(std::vector<std::string> algorithms,
                                         const Scale& scale) {
    return ExperimentPlan{std::move(algorithms), scale.scenarios, scale};
  }

  /// One grid cell; `index` orders cells scenario-major (scenario,
  /// algorithm, run), matching the old serial loop.
  struct Cell {
    std::size_t index = 0;
    std::string algorithm;
    std::string scenario;
    std::size_t run = 0;
    std::uint64_t seed = 0;  ///< deterministic function of (plan, cell)
  };

  /// All cells of the grid in deterministic order.
  [[nodiscard]] std::vector<Cell> cells() const;

  [[nodiscard]] std::size_t cell_count() const {
    return algorithms.size() * scenarios.size() * scale.runs;
  }

  /// Stable 64-bit key over everything that shapes the results or the
  /// per-cell telemetry (algorithms, scenarios, runs, budgets, networks,
  /// seed, MLS layout, fidelity mode) — the campaign store's identity.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Deterministic seed of one (scenario, run) cell — shared by every
/// algorithm so all contenders face the same instance stream.
[[nodiscard]] std::uint64_t cell_seed(const Scale& scale,
                                      const std::string& scenario,
                                      std::size_t run);

/// Executes `scale.runs` independent runs of `algorithm` on `scenario`,
/// serially on the calling thread, with the same per-cell seeding as the
/// driver (records are interchangeable with driver output).
[[nodiscard]] std::vector<RunRecord> run_repeats(const std::string& algorithm,
                                                 const std::string& scenario,
                                                 const Scale& scale);

struct ExperimentResult {
  std::vector<IndicatorSample> samples;  ///< grid order (scenario-major)
  std::vector<RunRecord> records;        ///< every cell, grid order
  /// True when the campaign store held every cell, so no cell ran.
  bool from_cache = false;
  /// Campaign-wide fold of the per-cell snapshots, merged in grid order
  /// (`merge_telemetry`) — identical for any worker count or shard layout,
  /// and on cache hits (the store keeps each cell's snapshot).
  telemetry::Snapshot telemetry;
};

class ExperimentDriver {
 public:
  struct Options {
    /// Tasks that run at once, the calling thread included (0 = one per
    /// hardware thread).  Cells, their population batches and their MLS
    /// walks share them.  Results are bitwise-identical for any value.
    std::size_t workers = 0;
    /// Replay the campaign store under `cache_dir`, append each computed
    /// cell to it, and write the indicator CSV there.
    bool use_cache = true;
    std::string cache_dir = "results";
    /// Per-cell progress lines on stdout.
    bool verbose = true;
    /// Live campaign progress: after each completed cell its telemetry
    /// snapshot is folded into this meter (thread-safe), which prints its
    /// `[progress]` line to stderr every N cells.  nullptr = no progress
    /// stream.  Replayed cells count as completed.  Purely observational:
    /// result bytes are identical with or without it.
    telemetry::ProgressMeter* progress = nullptr;
  };

  ExperimentDriver() = default;
  explicit ExperimentDriver(Options options) : options_(std::move(options)) {}

  /// Runs the grid — only the cells the campaign store lacks when
  /// `use_cache` is set — and reduces it to normalised indicator samples
  /// (`finish_campaign`).
  [[nodiscard]] ExperimentResult run(const ExperimentPlan& plan) const;

  /// Runs shard `shard_index` of `shard_count` (`cells_for_shard`) with
  /// the shard's cell log `shard_log_path(shard_dir, plan, shard_index,
  /// shard_count)` as its store: it replays the shard cells that file
  /// holds, runs the rest — appending each as it completes, so a killed
  /// shard keeps its finished cells and its rerun runs only the missing
  /// ones — and rewrites the file whole only when it computed cells.  The
  /// file is the shard's output, so `use_cache` and `cache_dir` do not
  /// apply.  Returns the shard's records in `cells_for_shard` order.
  /// Throws std::invalid_argument on a bad plan or shard coordinates.
  [[nodiscard]] std::vector<RunRecord> run_shard(
      const ExperimentPlan& plan, std::size_t shard_index,
      std::size_t shard_count, const std::string& shard_dir) const;

  /// Runs an arbitrary subset of `plan.cells()` — the phase-1 cell loop
  /// alone, no store, no reduction — and returns the records in the
  /// subset's order.  Because each cell is seeded by (plan, scenario, run)
  /// alone, the records are identical to the ones a full single-node run
  /// would produce for those cells.
  [[nodiscard]] std::vector<RunRecord> run_cells(
      const ExperimentPlan& plan,
      const std::vector<ExperimentPlan::Cell>& cells) const;

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  /// The replay/append path of `run` and `run_shard`: takes the records of
  /// `cells` that `store` (unless null) replayed, runs the rest through
  /// `run_cells_into`, and rewrites the store whole, in `cells` order, when
  /// it computed cells.  Returns the records in `cells` order.
  [[nodiscard]] std::vector<RunRecord> complete(
      const ExperimentPlan& plan,
      const std::vector<ExperimentPlan::Cell>& cells,
      CampaignStore* store) const;

  /// `run_cells`, appending each cell to `store` (unless null) as it
  /// completes.
  [[nodiscard]] std::vector<RunRecord> run_cells_into(
      const ExperimentPlan& plan,
      const std::vector<ExperimentPlan::Cell>& cells,
      CampaignStore* store) const;

  Options options_{};
};

/// Rejects plans that repeat an algorithm or scenario name (duplicates
/// double-count samples in the reduction).  Throws std::invalid_argument.
void validate_plan(const ExperimentPlan& plan);

/// The paper's per-scenario reference front: the non-dominated union of
/// every run of every algorithm on `scenario` (records not matching the
/// scenario are ignored).
[[nodiscard]] std::vector<moo::Solution> reference_front(
    const std::vector<RunRecord>& records, const std::string& scenario);

/// The phase-2 reduction: per-scenario reference fronts + normalised
/// indicator samples in plan (scenario-major) order.  A pure function of
/// (plan, records) — this is what makes every execution strategy (worker
/// counts, shard merges) bitwise-equivalent: they only have to reproduce
/// the records.
[[nodiscard]] std::vector<IndicatorSample> reduce_to_samples(
    const ExperimentPlan& plan, const std::vector<RunRecord>& records);

/// The campaign-wide telemetry fold: per-cell snapshots merged in the
/// records' (grid) order.  A pure function of the records, so every
/// execution strategy that reproduces them — any worker count or shard
/// layout — produces the identical snapshot.
[[nodiscard]] telemetry::Snapshot merge_telemetry(
    const std::vector<RunRecord>& records);

/// The exact bytes of the indicator CSV (header + one row per sample,
/// doubles at max precision).
[[nodiscard]] std::string indicator_csv(
    const std::vector<IndicatorSample>& samples);

/// Fingerprint-keyed CSV path: `<dir>/indicators_<scale>_<fp hex>.csv`.
[[nodiscard]] std::string indicator_csv_path(const std::string& dir,
                                             const ExperimentPlan& plan);

/// Values of one (algorithm, scenario) cell, in run order.
[[nodiscard]] std::vector<double> extract(
    const std::vector<IndicatorSample>& samples, const std::string& algorithm,
    const std::string& scenario, double IndicatorSample::* member);

/// Counts how many solutions of `b` are dominated by at least one of `a`.
[[nodiscard]] std::size_t dominance_count(const std::vector<moo::Solution>& a,
                                          const std::vector<moo::Solution>& b);

}  // namespace aedbmls::expt
