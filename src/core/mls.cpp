#include "core/mls.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "common/assert.hpp"
#include "common/clock.hpp"
#include "moo/core/aga_archive.hpp"
#include "moo/core/front_io.hpp"
#include "moo/operators/blx_alpha.hpp"
#include "par/thread_pool.hpp"

namespace aedbmls::core {
namespace {

/// One local-search procedure of Fig. 3.  Its state persists across epochs;
/// inside an epoch a worker writes only its own state, so workers walk in
/// parallel without locks.
struct Worker {
  std::size_t island = 0;  ///< population index
  std::size_t slot = 0;    ///< slot within the population
  std::size_t budget = 0;  ///< candidates this worker may walk
  Xoshiro256 rng;
  moo::Solution s;  ///< current solution (the worker's population slot)
  std::size_t spent = 0;
  std::size_t iteration = 0;
  std::vector<moo::Solution> submitted;  ///< this epoch's archive offers
  bool wants_sample = false;             ///< reached a reset this epoch
  AedbMls::Stats counters;               ///< summed over workers at the end
};

/// What every worker reads, and nobody writes, during an epoch.
struct Shared {
  const moo::Problem& problem;
  const MlsConfig& config;
  const std::vector<SearchCriterion>& criteria;
  const moo::EvaluationEngine& evaluator;
  std::size_t screen_tier;  ///< 0 = plain sequential loop
  /// Per-island copy of the population, refreshed at epoch boundaries.
  const std::vector<std::vector<moo::Solution>>& snapshots;

  /// Every evaluation of the run goes through the engine.
  void evaluate(moo::Solution& s) const {
    evaluator.evaluate(problem, std::span<moo::Solution>(&s, 1));
  }
};

/// Lines 1-2: warm start if provided, otherwise random with a few retries
/// toward feasibility (the paper initialises with feasible solutions;
/// retries are capped because feasibility can be rare).
void initialise(Worker& w, const Shared& shared, const moo::Solution* warm) {
  w.spent = 1;  // the initial evaluation (at least one)
  if (warm != nullptr) {
    w.s = *warm;
    if (!w.s.evaluated) {
      shared.evaluate(w.s);
      ++w.counters.evaluations;
    }
  } else {
    for (std::size_t attempt = 0;
         attempt <= shared.config.feasible_init_retries; ++attempt) {
      moo::Solution s;
      s.x = shared.problem.random_point(w.rng);
      shared.evaluate(s);
      ++w.counters.evaluations;
      if (!w.s.evaluated ||
          s.constraint_violation < w.s.constraint_violation) {
        w.s = std::move(s);
      }
      if (w.s.feasible()) break;
    }
  }
  // Line 3: store.
  w.submitted.push_back(w.s);
}

/// Lines 5-17 up to the next reset boundary or the end of the budget, with
/// the optional racing fast path.  Both modes walk the *identical*
/// candidate sequence and make identical accept/reject decisions; racing
/// only changes how cheaply a rejection is discovered.
void walk_epoch(Worker& w, const Shared& shared) {
  const MlsConfig& config = shared.config;
  const std::vector<moo::Solution>& snapshot = shared.snapshots[w.island];

  // Lines 6-7: one move from `s` (Eq. 2): teammate `t`, drawn from the
  // island's epoch snapshot (single-slot islands use their own slot and
  // consume no draw), guides the perturbation magnitude; one search
  // criterion picks the variables.
  const auto generate_candidate = [&](moo::Solution& out) {
    std::size_t pick = w.slot;
    if (snapshot.size() > 1) {
      pick = w.rng.uniform_int(snapshot.size() - 1);
      if (pick >= w.slot) ++pick;
    }
    const moo::Solution& t = snapshot[pick];
    const SearchCriterion& criterion =
        shared.criteria[w.rng.uniform_int(shared.criteria.size())];
    out.x = w.s.x;
    for (const std::size_t v : criterion.variables) {
      out.x[v] = config.symmetric_step
                     ? moo::symmetric_blx_step(w.s.x[v], t.x[v], config.alpha,
                                               w.rng)
                     : moo::paper_blx_step(w.s.x[v], t.x[v], config.alpha,
                                           w.rng);
    }
    shared.problem.clamp(out.x);
  };

  while (w.spent < w.budget) {
    moo::Solution candidate;
    generate_candidate(candidate);
    ++w.spent;

    bool screen_says_infeasible = false;
    if (shared.screen_tier != 0) {
      candidate.fidelity = static_cast<std::uint32_t>(shared.screen_tier);
      shared.evaluate(candidate);
      ++w.counters.screened;
      // The screen's violation is a lower bound of the full tier's, so a
      // positive value *proves* the candidate infeasible at full fidelity.
      screen_says_infeasible = candidate.constraint_violation > 0.0;
    }

    if (screen_says_infeasible) {
      // Line 9's feasibility test, decided without a full simulation.
      ++w.counters.screen_rejected;
      ++w.counters.rejected_infeasible;
    } else {
      if (shared.screen_tier != 0) {
        // Promote the survivor: acceptance (and archive admission) is
        // decided by a full-fidelity result only — screen objectives are
        // discarded wholesale.
        candidate.objectives.clear();
        candidate.constraint_violation = 0.0;
        candidate.evaluated = false;
        candidate.fidelity = 0;
        ++w.counters.promoted;
      }
      // Line 8: evaluate (full fidelity).
      shared.evaluate(candidate);
      ++w.counters.evaluations;

      // Lines 9-12: accept only feasible perturbations.
      if (candidate.feasible()) {
        w.submitted.push_back(candidate);
        w.s = std::move(candidate);
        ++w.counters.accepted_moves;
      } else {
        ++w.counters.rejected_infeasible;
      }
    }

    // Lines 13-16: periodic re-initialisation from the external archive
    // ends the epoch; the sample is served at the boundary.
    ++w.iteration;
    if (w.iteration % config.reset_period == 0 && w.spent < w.budget) {
      w.wants_sample = true;
      ++w.counters.resets;
      return;
    }
  }
}

}  // namespace

moo::AlgorithmResult AedbMls::run(const moo::Problem& problem,
                                  std::uint64_t seed) {
  const ElapsedTimer timer;
  AEDB_REQUIRE(config_.populations >= 1, "need at least one population");
  AEDB_REQUIRE(config_.threads_per_population >= 1, "need at least one thread");
  AEDB_REQUIRE(config_.reset_period >= 1, "reset period must be >= 1");
  AEDB_REQUIRE(config_.alpha > 0.0 && config_.alpha < 1.0,
               "alpha outside (0,1)");

  std::vector<SearchCriterion> criteria = config_.criteria;
  if (criteria.empty()) {
    criteria = all_variables_criterion(problem.dimensions());
  }
  validate_criteria(criteria, problem.dimensions());

  // Every evaluation of a walk goes through one engine; a pool-less
  // fallback keeps the single code path when the caller brings none.
  const moo::EvaluationEngine fallback_engine;
  const moo::EvaluationEngine& engine =
      config_.evaluator != nullptr ? *config_.evaluator : fallback_engine;

  const std::size_t team = config_.threads_per_population;
  std::vector<Worker> workers(config_.populations * team);
  for (std::size_t i = 0; i < workers.size(); ++i) {
    Worker& w = workers[i];
    w.island = i / team;
    w.slot = i % team;
    w.rng = Xoshiro256(
        hash_combine(hash_combine(seed, w.island + 1), w.slot + 1));
    // Remainder distribution: the first `extra_evaluation_workers` flat
    // worker indices spend one evaluation more than the base budget.
    w.budget = config_.evaluations_per_thread +
               (i < config_.extra_evaluation_workers ? 1 : 0);
  }

  std::vector<std::vector<moo::Solution>> snapshots(
      config_.populations, std::vector<moo::Solution>(team));
  const Shared shared{problem, config_, criteria, engine,
                      config_.screen_moves ? problem.screening_tier() : 0,
                      snapshots};
  moo::AgaArchive archive(config_.archive_capacity);
  Xoshiro256 sample_rng(hash_combine(seed, 0xA2C41));
  stats_ = Stats{};

  // Epoch boundary, on the calling thread and in a fixed order: admit the
  // submissions in (population, worker, walk) order, serve reset samples in
  // flat worker order, then refresh every island's snapshot.
  const auto reconcile = [&] {
    for (Worker& w : workers) {
      for (const moo::Solution& s : w.submitted) {
        if (archive.try_insert(s)) ++stats_.archive_inserts_accepted;
      }
      w.submitted.clear();
    }
    for (Worker& w : workers) {
      if (w.wants_sample && !archive.empty()) {
        w.s = archive.sample(1, sample_rng).front();
      }
      w.wants_sample = false;
    }
    for (const Worker& w : workers) snapshots[w.island][w.slot] = w.s;
  };

  // Workers walk as tasks of the evaluator's pool, or of a run-local pool
  // with one task per worker (the calling thread is one of them, so a lone
  // worker walks on it).  See EXPERIMENTS.md "Deviations".
  std::optional<par::ThreadPool> own_pool;
  par::ThreadPool& pool =
      engine.pool() != nullptr ? *engine.pool() : own_pool.emplace(workers.size());
  pool.parallel_for(workers.size(), [&](std::size_t i) {
    const std::vector<moo::Solution>& warm = config_.initial_solutions;
    initialise(workers[i], shared, i < warm.size() ? &warm[i] : nullptr);
  });
  reconcile();  // line 4: every population is initialised
  while (std::any_of(workers.begin(), workers.end(),
                     [](const Worker& w) { return w.spent < w.budget; })) {
    pool.parallel_for(workers.size(),
                      [&](std::size_t i) { walk_epoch(workers[i], shared); });
    reconcile();
  }

  for (const Worker& w : workers) {
    stats_.evaluations += w.counters.evaluations;
    stats_.accepted_moves += w.counters.accepted_moves;
    stats_.rejected_infeasible += w.counters.rejected_infeasible;
    stats_.resets += w.counters.resets;
    stats_.screened += w.counters.screened;
    stats_.screen_rejected += w.counters.screen_rejected;
    stats_.promoted += w.counters.promoted;
  }

  moo::AlgorithmResult result;
  result.front = archive.contents();
  moo::sort_canonical(result.front);
  result.evaluations = stats_.evaluations;
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace aedbmls::core
