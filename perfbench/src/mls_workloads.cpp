/// The two AEDB-MLS workloads.
///
///  * `mls-d300` — one tuning run on Table II `d300` at full fidelity, the
///    paper's reset period, islands of two workers (nproc workers in
///    total), plus (every third measured repetition) a single-worker run on
///    the same seed for the scaling metric.  75 nodes: simulator fan-out
///    dominates each candidate.
///  * `race-deadline` — racing mode (`screen_moves`) on `deadline-tight`:
///    short single-worker uninterrupted walks from screen-proven infeasible
///    starts, spread over an nproc-thread pool; almost every candidate is a
///    truncated screen run.  Each walk is deterministic, so its work
///    counters must repeat exactly and its front must be byte-identical to
///    the full-fidelity walk of the same seed.

#include <optional>
#include <thread>

#include "common/rng.hpp"
#include "core/mls.hpp"
#include "core/search_criteria.hpp"
#include "expt/scale.hpp"
#include "expt/scenario_catalog.hpp"
#include "moo/core/evaluation_engine.hpp"
#include "par/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace core = aedbmls::core;
namespace expt = aedbmls::expt;

std::size_t load_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

bool want_rep(std::size_t done, std::int64_t start_ns, const Options& options) {
  if (done < options.min_reps) return true;
  // The minimum repetition count always completes, then whole repetitions
  // fill the rest of the run; in a traced run every traced repetition gets
  // its untraced partner.
  if (options.trace && done > 0 && done % 2 == 0) return true;
  return static_cast<double>(now_ns() - start_ns) / 1e9 < options.seconds;
}

std::size_t distinct_threads(const EvalLog& log) {
  std::vector<std::uint32_t> threads;
  for (const EvalSample& s : log.samples()) threads.push_back(s.thread);
  std::sort(threads.begin(), threads.end());
  return static_cast<std::size_t>(
      std::unique(threads.begin(), threads.end()) - threads.begin());
}

bool same_detail(const aedb::AedbTuningProblem::Detail& a,
                 const aedb::AedbTuningProblem::Detail& b) {
  return a.mean_energy_dbm == b.mean_energy_dbm && a.mean_coverage == b.mean_coverage &&
         a.mean_forwardings == b.mean_forwardings &&
         a.mean_broadcast_time_s == b.mean_broadcast_time_s &&
         a.mean_energy_mj == b.mean_energy_mj;
}

namespace {

constexpr std::size_t kD300EvalsPerWorker = 60;  // one reset per worker, both legs
/// The one-worker leg takes about as long as the nproc leg; running it in
/// every third measured repetition (and not in the warm-up) gives the
/// median of candidates/s more nproc-leg samples in a run.
constexpr std::size_t kOneWorkerLegEvery = 3;
constexpr std::size_t kRaceWalks = 60;
constexpr std::size_t kRaceEvalsPerWorker = 25;
/// Walks whose racing front is compared with their full-fidelity walk.
constexpr std::size_t kRaceCheckedWalks = 16;

/// MLS configured the way the algorithm registry does it for `scale`.
core::MlsConfig mls_config(const expt::Scale& scale,
                           const moo::EvaluationEngine* engine) {
  core::MlsConfig config;
  config.populations = scale.mls_populations;
  config.threads_per_population = scale.mls_threads;
  config.evaluations_per_thread = scale.mls_evals_per_thread();
  config.extra_evaluation_workers = scale.mls_extra_evaluation_workers();
  config.reset_period = 50;  // the paper's tuned value (§V)
  config.alpha = 0.2;
  config.archive_capacity = 100;
  config.criteria = core::aedb_criteria();
  config.evaluator = engine;
  return config;
}

expt::Scale layout(std::size_t populations, std::size_t threads,
                   std::size_t evals_per_worker) {
  expt::Scale scale;  // smoke: 3 evaluation networks, paper master seed
  scale.mls_populations = populations;
  scale.mls_threads = threads;
  scale.evals = populations * threads * evals_per_worker;
  return scale;
}

/// One `AedbMls::run`, checked: feasible mutually non-dominated front, and
/// the declared budget consumed (initial-solution retries may add up to
/// `feasible_init_retries` evaluations per worker).
struct Leg {
  moo::AlgorithmResult result;
  core::AedbMls::Stats stats;
  double wall_s = 0.0;
  std::uint64_t candidates = 0;  ///< full evaluations + screen rejections
  double eval_seconds = 0.0;     ///< traced legs only
  bool ok = false;
};

Leg run_leg(const aedb::AedbTuningProblem& problem, const expt::Scale& scale,
            const core::MlsConfig& config, std::uint64_t seed, Tracer* tracer,
            EvalLog* log, std::int64_t parent, const std::string& label,
            Outcome& out) {
  Leg leg;
  const std::uint64_t declared = scale.mls_total_evaluations();
  try {
    const ScopedSpan span(tracer, "core.mls_run", parent);
    std::optional<TracedProblem> traced;
    if (log != nullptr) traced.emplace(problem, *tracer, *log, span.id());
    const moo::Problem& target =
        traced ? static_cast<const moo::Problem&>(*traced) : problem;
    core::AedbMls mls(config);
    const std::int64_t t0 = now_ns();
    leg.result = mls.run(target, seed);
    leg.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    leg.stats = mls.stats();
    if (traced) leg.eval_seconds = traced->eval_seconds();
  } catch (const std::exception& e) {
    out.attempted += declared;
    out.fail(declared, label + ": threw: " + e.what());
    return leg;
  }
  leg.candidates = leg.stats.evaluations + leg.stats.screen_rejected;
  out.attempted += leg.candidates;
  const std::uint64_t slack = scale.mls_workers() * config.feasible_init_retries;
  if (const std::string why = check_front(leg.result.front); !why.empty()) {
    out.fail(leg.candidates, label + ": " + why);
  } else if (leg.candidates < declared || leg.candidates > declared + slack) {
    out.fail(leg.candidates, label + ": decided " + std::to_string(leg.candidates) +
                                 " candidates for a declared budget of " +
                                 std::to_string(declared));
  } else {
    leg.ok = true;
  }
  return leg;
}

/// One timed leg: an `AedbMls::run` per walk seed, spread over `pool`
/// (dynamic scheduling, one walk per task) or run on the calling thread.
struct Legs {
  std::vector<Leg> walks;
  double wall_s = 0.0;
  std::uint64_t candidates = 0;
  double eval_seconds = 0.0;
  double walk_seconds = 0.0;   ///< sum of the walks' own wall times
  core::AedbMls::Stats stats;  ///< summed over walks
  bool ok = true;
};

Legs run_walks(const aedb::AedbTuningProblem& problem, const expt::Scale& scale,
               const std::vector<core::MlsConfig>& configs,
               const std::vector<std::uint64_t>& seeds, aedbmls::par::ThreadPool* pool,
               Tracer* tracer, EvalLog* log, const char* span_name,
               const std::string& label, Outcome& out) {
  Legs legs;
  legs.walks.resize(seeds.size());
  std::vector<Outcome> outcomes(seeds.size());
  const ScopedSpan span(tracer, span_name);
  const std::int64_t t0 = now_ns();
  const auto walk = [&](std::size_t i) {
    const std::string name = seeds.size() > 1 ? label + " walk " + std::to_string(i) : label;
    legs.walks[i] = run_leg(problem, scale, configs[i], seeds[i], tracer, log, span.id(), name,
                            outcomes[i]);
  };
  if (pool != nullptr) {
    pool->parallel_for(seeds.size(), walk);
  } else {
    for (std::size_t i = 0; i < seeds.size(); ++i) walk(i);
  }
  legs.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    out.attempted += outcomes[i].attempted;
    out.failed += outcomes[i].failed;
    out.failures.insert(out.failures.end(), outcomes[i].failures.begin(),
                        outcomes[i].failures.end());
    const Leg& leg = legs.walks[i];
    legs.ok = legs.ok && leg.ok;
    legs.candidates += leg.candidates;
    legs.eval_seconds += leg.eval_seconds;
    legs.walk_seconds += leg.wall_s;
    accumulate(legs.stats, leg.stats);
  }
  return legs;
}

/// What distinguishes the two MLS workloads.
///  * One walk of `populations` x `threads` workers (nproc in total), then a
///    one-worker leg on the same seed: `parallel_efficiency` is the paper's
///    scaling ratio, candidates/s(nproc) / (nproc x candidates/s(1)).
///  * Several single-worker walks spread over an nproc-thread pool:
///    `parallel_efficiency` is the pool's busy share, the walks' summed
///    wall time / (nproc x leg wall time).
struct MlsWorkload {
  std::string scenario;
  std::size_t populations = 1;
  std::size_t threads = 1;
  std::size_t walks = 1;
  std::size_t evals_per_worker = 0;
  bool racing = false;
  /// Start each walk from a seeded random point the screening tier proves
  /// infeasible (the rejection-dominated regime) instead of the best of
  /// several random tries.
  bool infeasible_start = false;
};

Outcome run_mls_workload(const MlsWorkload& w, const Options& options, Tracer* tracer) {
  Outcome out;
  const expt::Scale par_scale = layout(w.populations, w.threads, w.evals_per_worker);
  const expt::Scale one_scale = layout(1, 1, w.evals_per_worker);
  const std::size_t threads = load_threads();
  const bool scaling_leg = w.walks == 1;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < w.walks; ++i) {
    seeds.push_back(w.walks == 1 ? options.seed : aedbmls::hash_combine(options.seed, i + 1));
  }

  std::vector<double> setup_s, wall_s, cps, efficiency, traced_cps, untraced_cps,
      attributed, one_wall_s, raw_cps;
  Speed speed(threads);
  double peak_rss = 0.0;
  struct {
    std::uint64_t candidates = 0;
    double wall_s = 0.0;
  } par_pool, one_pool;
  std::vector<std::map<std::string, double>> layers;
  std::optional<aedb::AedbTuningProblem::Detail> first_reference;
  std::map<std::string, std::uint64_t> first_exact;
  const std::int64_t start = now_ns();

  for (std::size_t rep = 0; want_rep(rep, start, options); ++rep) {
    // Repetition 0 warms the process up and is checked but not reported;
    // in a traced run odd repetitions are traced.
    const bool warmup = rep == 0;
    const bool traced = tracer != nullptr && rep % 2 == 1;
    Tracer* rep_tracer = traced ? tracer : nullptr;

    // ---- set-up: catalog resolve, problem + ensemble, engine ----
    const std::int64_t t_setup = now_ns();
    const expt::ScenarioSpec spec = expt::ScenarioCatalog::instance().resolve(w.scenario);
    const aedb::AedbTuningProblem problem(spec.problem_config(par_scale));
    const moo::EvaluationEngine engine;  // benchmark-owned, pool-less
    std::optional<aedbmls::par::ThreadPool> pool;
    if (!scaling_leg) pool.emplace(threads);
    const aedb::AedbTuningProblem::Detail reference = reference_evaluation(problem);
    core::MlsConfig par_config = mls_config(par_scale, &engine);
    core::MlsConfig one_config = mls_config(one_scale, &engine);
    if (w.racing) {
      // Uninterrupted walks: no reset ever re-seeds a worker.
      for (core::MlsConfig* c : {&par_config, &one_config}) {
        c->reset_period = c->evaluations_per_thread + 1;
        c->screen_moves = true;
      }
    }
    std::vector<core::MlsConfig> par_configs(seeds.size(), par_config);
    std::vector<core::MlsConfig> one_configs(seeds.size(), one_config);
    if (w.infeasible_start) {
      const std::size_t tier = problem.screening_tier();
      for (std::size_t i = 0; i < seeds.size(); ++i) {
        aedbmls::Xoshiro256 rng(aedbmls::hash_combine(seeds[i], 0x57A27));
        moo::Solution start;
        do {
          start.x = problem.random_point(rng);
        } while (problem.evaluate_at(start.x, tier).constraint_violation <= 0.0);
        par_configs[i].initial_solutions = {start};
      }
    }
    const double setup = static_cast<double>(now_ns() - t_setup) / 1e9;
    const bool measured = !warmup && !traced;
    const bool one_leg = scaling_leg && measured && wall_s.size() % kOneWorkerLegEvery == 0;
    if (!first_reference) {
      first_reference = reference;
    } else if (!same_detail(*first_reference, reference)) {
      out.fail(1, "set-up reference evaluation differs between repetitions");
    }

    if (measured) speed.before();
    // ---- timed phase: the nproc leg, then the one-worker leg ----
    EvalLog log;
    const Work before = Work::of(problem);
    const auto engine_before = engine.stats();
    Legs par;
    Legs one;
    Work par_work;
    moo::EvaluationEngine::Stats par_engine;
    std::int64_t root_id = -1;
    {
      const ScopedSpan root(rep_tracer, "perfbench.timed");
      root_id = root.id();
      par = run_walks(problem, par_scale, par_configs, seeds, pool ? &*pool : nullptr,
                      rep_tracer,
                      traced ? &log : nullptr, "perfbench.leg_nproc",
                      w.scenario + " nproc leg", out);
      par_work = Work::of(problem) - before;
      const auto engine_mid = engine.stats();
      par_engine = {engine_mid.solutions - engine_before.solutions,
                    engine_mid.batches - engine_before.batches,
                    engine_mid.chunks - engine_before.chunks};
      if (one_leg) {
        one = run_walks(problem, one_scale, one_configs, seeds, nullptr, rep_tracer, nullptr,
                        "perfbench.leg_one_worker", w.scenario + " one-worker leg", out);
      }
    }
    if (measured) speed.after();
    // The program's own footprint: read before any calibration buffer.
    if (warmup) peak_rss = peak_rss_mib();
    if (!par.ok || !one.ok) continue;

    const double rate = static_cast<double>(par.candidates) / par.wall_s;
    if (!warmup) (traced ? traced_cps : untraced_cps).push_back(rate);
    if (!warmup && !traced) {
      setup_s.push_back(setup * speed.last());
      wall_s.push_back(par.wall_s * speed.last());
      cps.push_back(rate / speed.last());
      raw_cps.push_back(rate);
      if (one_leg) {
        // Pooled over the repetitions that ran both legs: one short
        // single-worker trajectory per repetition is too noisy alone.
        par_pool.candidates += par.candidates;
        par_pool.wall_s += par.wall_s;
        one_pool.candidates += one.candidates;
        one_pool.wall_s += one.wall_s;
        one_wall_s.push_back(one.wall_s);
      } else if (!scaling_leg) {
        efficiency.push_back(par.walk_seconds / (static_cast<double>(threads) * par.wall_s));
      }
    }

    // Work counters: exact where the walk is a pure function of the seed
    // (racing walks of one worker; evaluation/reset counts always),
    // trajectory-dependent where islands share an archive.
    std::map<std::string, std::uint64_t> exact;
    std::map<std::string, std::uint64_t> trajectory;
    exact["core.nproc.evaluations"] = par.stats.evaluations;
    exact["core.nproc.resets"] = par.stats.resets;
    if (one_leg) {
      exact["core.one.evaluations"] = one.stats.evaluations;
      exact["core.one.resets"] = one.stats.resets;
    }
    exact["aedb.sim_runs"] = par_work.runs;
    auto& walk_dependent = w.racing ? exact : trajectory;
    walk_dependent["core.nproc.accepted_moves"] = par.stats.accepted_moves;
    walk_dependent["core.nproc.rejected_infeasible"] = par.stats.rejected_infeasible;
    walk_dependent["core.nproc.archive_inserts_accepted"] =
        par.stats.archive_inserts_accepted;
    walk_dependent["sim.events"] = par_work.events + par_work.screen_events;
    walk_dependent["sim.events_per_candidate"] =
        (par_work.events + par_work.screen_events) / par.candidates;
    if (w.racing) {
      exact["core.nproc.screened"] = par.stats.screened;
      exact["core.nproc.screen_rejected"] = par.stats.screen_rejected;
      exact["core.nproc.promoted"] = par.stats.promoted;
      exact["aedb.evals"] = par_work.evals;
      exact["aedb.screen.evals"] = par_work.screen_evals;
      exact["aedb.screen.sim_runs"] = par_work.screen_runs;
      exact["moo.engine_solutions"] = par_engine.solutions;
      exact["moo.engine_batches"] = par_engine.batches;
    }
    // A counter must equal its value in the first repetition that had it.
    if (warmup) out.trajectory = trajectory;
    bool repeated = true;
    for (const auto& [name, value] : exact) {
      repeated = first_exact.emplace(name, value).first->second == value && repeated;
    }
    if (!repeated) {
      out.fail(par.candidates + one.candidates,
               "exact work counters differ between repetitions of one seed");
    }

    if (w.racing && rep == 0) {
      // The racing contract: the full-fidelity walk of each seed admits a
      // byte-identical front after deciding the same candidates.
      const std::size_t checked = std::min(kRaceCheckedWalks, seeds.size());
      std::vector<core::MlsConfig> full_configs(par_configs.begin(),
                                                par_configs.begin() + checked);
      for (core::MlsConfig& c : full_configs) c.screen_moves = false;
      const std::vector<std::uint64_t> full_seeds(seeds.begin(), seeds.begin() + checked);
      Outcome scratch;
      const Legs full = run_walks(problem, par_scale, full_configs, full_seeds,
                                  pool ? &*pool : nullptr, nullptr,
                                  nullptr, "perfbench.leg_full", "full-fidelity", scratch);
      for (std::size_t i = 0; i < checked; ++i) {
        const Leg& racing = par.walks[i];
        const Leg& exact_walk = full.walks[i];
        const std::string name = "walk " + std::to_string(i);
        if (!exact_walk.ok) {
          out.fail(racing.candidates, name + ": full-fidelity walk failed");
        } else if (!fronts_identical(racing.result.front, exact_walk.result.front)) {
          out.fail(racing.candidates,
                   name + ": racing front differs from the full-fidelity front");
        } else if (exact_walk.stats.evaluations !=
                   racing.stats.evaluations + racing.stats.screen_rejected) {
          out.fail(racing.candidates, name + ": racing decided other candidates than the "
                                             "full-fidelity walk");
        }
      }
    }

    if (traced) {
      std::map<std::string, double> m;
      for (const char* name : {"expt.cells", "expt.run_cells_s", "expt.reduce_s",
                               "expt.csv_encode_ms", "expt.cell_wall_p50_s",
                               "expt.cell_wall_max_s", "expt.worker_busy_share"}) {
        m[name] = 0.0;  // no experiment driver in this workload
      }
      std::vector<double> walk_walls;
      for (const Leg& leg : par.walks) walk_walls.push_back(leg.wall_s);
      const std::size_t capacity = scaling_leg ? par_scale.mls_workers() : threads;
      add_core_metrics(m, par.stats, walk_walls,
                       par.eval_seconds / (static_cast<double>(capacity) * par.wall_s));
      m["core.eval_threads"] = static_cast<double>(distinct_threads(log));
      m["moo.engine_batches"] = static_cast<double>(par_engine.batches);
      m["moo.engine_chunks"] = static_cast<double>(par_engine.chunks);
      m["moo.engine_solutions"] = static_cast<double>(par_engine.solutions);
      m["sim.events_per_candidate"] =
          static_cast<double>(par_work.events + par_work.screen_events) /
          static_cast<double>(par.candidates);
      LayerInputs inputs;
      inputs.log = &log;
      inputs.threads = load_threads();
      inputs.work = {par_work};
      for (const Leg& leg : par.walks) inputs.fronts.push_back(leg.result.front);
      std::vector<std::string> probe_failures;
      add_layer_metrics(inputs, m, out.flags, probe_failures);
      for (const std::string& why : probe_failures) out.fail(par.candidates, why);
      attributed.push_back(attributed_share(tracer->spans(), root_id));
      layers.push_back(std::move(m));
    }
  }

  out.metrics["candidates_per_s"] = median(cps);
  out.metrics["wall_s"] = median(wall_s);
  out.metrics["setup_s"] = median(setup_s);
  out.metrics["parallel_efficiency"] =
      scaling_leg ? (static_cast<double>(par_pool.candidates) / par_pool.wall_s) /
                        (static_cast<double>(par_scale.mls_workers()) *
                         static_cast<double>(one_pool.candidates) / one_pool.wall_s)
                  : median(efficiency);
  out.metrics["peak_rss_mb"] = peak_rss;
  out.exact = first_exact;
  if (tracer != nullptr) {
    std::map<std::string, double> m = median_of(layers);
    m["trace.attributed_share"] = median(attributed);
    m["trace.overhead_ratio"] = median(untraced_cps) / median(traced_cps);
    out.metrics.insert(m.begin(), m.end());
  }
  out.info["layout"] = std::to_string(w.walks) + " walk(s) of " +
                       std::to_string(w.populations) + "x" + std::to_string(w.threads);
  out.info["reps"] = std::to_string(setup_s.size());
  out.info["candidates_per_s_reps"] = join(cps);
  out.info["setup_s_reps"] = join(setup_s);
  out.info["raw_candidates_per_s_reps"] = join(raw_cps);
  out.info["speed_reps"] = join(speed.factors());
  if (scaling_leg) out.info["one_worker_leg_s"] = std::to_string(median(one_wall_s));
  return out;
}

}  // namespace

Outcome run_mls_d300(const Options& options, Tracer* tracer) {
  // Islands of two workers, nproc workers in total.
  const std::size_t workers = load_threads();
  const std::size_t populations = workers >= 2 ? workers / 2 : 1;
  return run_mls_workload(
      {"d300", populations, workers / populations, 1, kD300EvalsPerWorker, false, false},
      options, tracer);
}

Outcome run_race_deadline(const Options& options, Tracer* tracer) {
  // Single-worker walks, each one uninterrupted island whose front is a
  // pure function of its seed, started from a screen-proven infeasible
  // point: the rejection-dominated regime racing is built for.
  return run_mls_workload(
      {"deadline-tight", 1, 1, kRaceWalks, kRaceEvalsPerWorker, true, true}, options, tracer);
}

}  // namespace perfbench
