#pragma once

/// AEDB-MLS — the paper's contribution (§IV): a massively parallel
/// multi-start multi-objective local search.
///
/// Structure (Fig. 3 / Fig. 4):
///  * `populations` islands of `threads_per_population` local-search
///    workers each;
///  * one external AGA archive fed by every worker;
///  * every worker repeatedly: picks a teammate `t` from its island's
///    *epoch snapshot* (see below), draws one of the sensitivity-guided
///    search criteria, applies the Eq.-2 BLX-α step to that criterion's
///    variables, evaluates, and accepts the move iff the perturbed
///    solution is feasible (bt < 2 s), submitting every accepted solution
///    to the archive;
///  * every `reset_period` iterations each worker discards its solution
///    and re-seeds it from the archive.
///
/// **Bulk-synchronous epochs.**  The paper's workers run asynchronously
/// against the shared archive; here they run in epochs of `reset_period`
/// iterations, which is one legal interleaving of that model.  Inside an
/// epoch the workers walk as one `parallel_for` on the evaluator's
/// `par::ThreadPool` (without one, on a run-local pool of one task per
/// worker, the calling thread included).  Each reads teammates only
/// from its island's snapshot of the population taken at the epoch start,
/// and buffers the solutions it accepts.  At the boundary the calling
/// thread admits the buffers into a plain `moo::AgaArchive` in
/// (population, worker, walk) order, serves the reset samples in flat
/// worker order from one seeded RNG and refreshes the snapshots.  The
/// front and `Stats` are therefore a pure function of (problem, config,
/// seed), whatever the thread timing or the pool's size —
/// which also lets the racing mode below change per-candidate cost
/// without changing any trajectory.
///
/// **Racing mode** (`screen_moves`).  When the problem exposes a
/// conservative screening tier (`Problem::screening_tier`), each worker
/// screens every candidate it generates at that cheap tier first:
/// screen-proven-infeasible candidates are rejected without ever paying a
/// full simulation; survivors are promoted to one full-fidelity
/// evaluation that alone decides acceptance.  Generation never depends on
/// a screen, and archive admission is full-fidelity-only, so the
/// accept/reject sequence — and hence the archive content and the
/// reported front — is identical to a non-screened run; only the wall
/// time changes.
///
/// Budget: `evaluations_per_thread` *candidates* per worker (250 in the
/// paper => 8×12×250 = 24000 total; in racing mode screen-rejected
/// candidates consume budget without a full simulation).  The returned
/// front is canonically sorted (`moo::sort_canonical`).

#include "core/search_criteria.hpp"
#include "moo/algorithms/algorithm.hpp"

namespace aedbmls::core {

struct MlsConfig {
  std::size_t populations = 8;              ///< paper: 8 distributed populations
  std::size_t threads_per_population = 12;  ///< paper: 12 (cores per node)
  std::size_t evaluations_per_thread = 250; ///< paper: 250
  /// Workers (by flat index, population-major) that run one extra
  /// evaluation.  A total budget rarely divides evenly across the worker
  /// grid; distributing the remainder here lets callers consume exactly
  /// the declared budget instead of silently truncating it (with 120
  /// evaluations over 96 workers the plain division drops 24 of them).
  /// A worker whose budget runs out sits out the remaining epochs.
  std::size_t extra_evaluation_workers = 0;
  std::size_t reset_period = 50;            ///< paper's tuned value (§V)
  double alpha = 0.2;                       ///< paper's tuned BLX-α value (§V)
  std::size_t archive_capacity = 100;
  std::size_t feasible_init_retries = 5;    ///< attempts at a feasible start

  /// Search criteria; empty => unguided all-variables criterion.
  std::vector<SearchCriterion> criteria;

  /// E9 ablation: replace the paper's asymmetric Eq.-2 step with the
  /// zero-bias symmetric variant.
  bool symmetric_step = false;

  /// Racing mode: screen each candidate at the problem's conservative
  /// screening tier and promote only survivors to the full evaluation (see
  /// file comment).  Falls back to the plain loop when
  /// `Problem::screening_tier()` is 0.  Admitted fronts are byte-identical
  /// either way.
  bool screen_moves = false;

  /// Engine every evaluation goes through; the walks run on its pool.  Null,
  /// or an engine without a pool, gives the run a pool of its own with one
  /// task per worker — same results either way.
  const moo::EvaluationEngine* evaluator = nullptr;

  /// Optional warm start (the CellDE+MLS hybrid seeds islands from a
  /// previous front instead of random points).
  std::vector<moo::Solution> initial_solutions;
};

class AedbMls final : public moo::Algorithm {
 public:
  explicit AedbMls(MlsConfig config) : config_(std::move(config)) {}

  [[nodiscard]] moo::AlgorithmResult run(const moo::Problem& problem,
                                         std::uint64_t seed) override;
  [[nodiscard]] std::string name() const override { return "AEDB-MLS"; }

  /// Aggregate behaviour counters of the last run (test/diagnostic).
  struct Stats {
    std::uint64_t evaluations = 0;          ///< *full-fidelity* evaluations
    std::uint64_t accepted_moves = 0;       ///< feasible ŝ replacing s
    std::uint64_t rejected_infeasible = 0;  ///< ŝ failing the bt constraint
    std::uint64_t resets = 0;               ///< per-thread re-initialisations
    std::uint64_t archive_inserts_accepted = 0;
    // Racing-mode counters (zero in plain mode).
    std::uint64_t screened = 0;         ///< = screen_rejected + promoted
    std::uint64_t screen_rejected = 0;  ///< rejected by the screen alone
    std::uint64_t promoted = 0;         ///< screen survivors fully evaluated
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  [[nodiscard]] const MlsConfig& config() const noexcept { return config_; }

 private:
  MlsConfig config_;
  Stats stats_;
};

}  // namespace aedbmls::core
