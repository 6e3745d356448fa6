/// `campaign-smoke` — an `ExperimentDriver` grid of {NSGAII, CellDE,
/// AEDB-MLS} x {d100, sparse-wide} x runs on nproc driver workers, no
/// cache.  Small sparse networks, so the per-cell costs (problem and context
/// construction, MLS cells spawning fresh threads, generational operators,
/// the reference-front and indicator reduction) carry more of the wall time
/// than simulator fan-out does.
///
/// The network ensemble is the paper master seed's; the workload seed
/// (mod `kDigestSeeds`) draws the cell seeds.  The generational cells are
/// deterministic, so their indicator rows — reduced among themselves, away
/// from the MLS fronts — must match the digest pinned for that seed in
/// `perfbench/digests.txt` (`perfbench --pin-digests=64` regenerates it).

#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>

#include "common/rng.hpp"
#include "core/mls.hpp"
#include "expt/algorithm_registry.hpp"
#include "expt/experiment.hpp"
#include "moo/core/evaluation_engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace core = aedbmls::core;
namespace expt = aedbmls::expt;

namespace {

constexpr std::size_t kRuns = 3;
constexpr std::uint64_t kDigestSeeds = 64;
constexpr const char* kMls = "AEDB-MLS";

const std::vector<std::string>& algorithms() {
  static const std::vector<std::string> names{"NSGAII", "CellDE", kMls};
  return names;
}

const std::vector<std::string>& generational() {
  static const std::vector<std::string> names{"NSGAII", "CellDE"};
  return names;
}

expt::ExperimentPlan make_plan(const std::vector<std::string>& names) {
  expt::Scale scale;  // smoke: 120 evaluations, 3 networks, 2x2 MLS islands
  scale.runs = kRuns;
  scale.scenarios = {"d100", "sparse-wide"};
  return expt::ExperimentPlan::of(names, scale);
}

/// The plan's cells, reseeded from the workload seed.  Seeds depend on
/// (scenario, run) only, so every algorithm faces the same instance stream.
std::vector<expt::ExperimentPlan::Cell> seeded_cells(const expt::ExperimentPlan& plan,
                                                     std::uint64_t seed) {
  std::vector<expt::ExperimentPlan::Cell> cells = plan.cells();
  for (expt::ExperimentPlan::Cell& cell : cells) {
    std::uint64_t key = aedbmls::hash_combine(0xA5EDB5EEDULL, seed % kDigestSeeds);
    for (const char c : cell.scenario) {
      key = aedbmls::hash_combine(key, static_cast<unsigned char>(c));
    }
    cell.seed = aedbmls::hash_combine(key, cell.run + 1);
  }
  return cells;
}

expt::ExperimentDriver make_driver() {
  expt::ExperimentDriver::Options options;
  options.workers = load_threads();
  options.use_cache = false;
  options.verbose = false;
  return expt::ExperimentDriver(options);
}

/// Digest of the generational cells' indicator rows, reduced among
/// themselves (the MLS fronts are not reproducible and would shift the
/// reference fronts).
std::uint64_t generational_digest(const std::vector<expt::RunRecord>& records) {
  std::vector<expt::RunRecord> kept;
  for (const expt::RunRecord& r : records) {
    if (r.algorithm != kMls) kept.push_back(r);
  }
  return fnv1a(expt::indicator_csv(
      expt::reduce_to_samples(make_plan(generational()), kept)));
}

std::map<std::uint64_t, std::uint64_t> load_digests(const std::string& path) {
  std::map<std::uint64_t, std::uint64_t> table;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::uint64_t seed = 0;
    std::string hex;
    if (row >> seed >> hex) table[seed] = std::stoull(hex, nullptr, 16);
  }
  return table;
}

std::string hex64(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << value;
  return out.str();
}

/// Where a traced repetition's decorators report.
struct CampaignSink {
  struct MlsCell {
    core::AedbMls::Stats stats;
    double wall_s = 0.0;
    double eval_seconds = 0.0;
    std::size_t workers = 0;
  };
  Tracer* tracer = nullptr;
  EvalLog log;
  const moo::EvaluationEngine engine;  // pool-less, like the driver's own
  std::int64_t cells_parent = -1;
  std::mutex mutex;
  std::vector<MlsCell> mls;
};

/// Runs a registered algorithm on a `TracedProblem` inside cell spans.
class TracedAlgorithm final : public moo::Algorithm {
 public:
  TracedAlgorithm(std::unique_ptr<moo::Algorithm> inner, CampaignSink& sink)
      : inner_(std::move(inner)), sink_(sink) {}

  moo::AlgorithmResult run(const moo::Problem& problem, std::uint64_t seed) override {
    const auto& tuning = dynamic_cast<const aedb::AedbTuningProblem&>(problem);
    const ScopedSpan cell(sink_.tracer, "expt.cell", sink_.cells_parent);
    auto* mls = dynamic_cast<core::AedbMls*>(inner_.get());
    const ScopedSpan span(sink_.tracer, mls != nullptr ? "core.mls_run" : "moo.algorithm_run");
    const TracedProblem traced(tuning, *sink_.tracer, sink_.log, span.id());
    moo::AlgorithmResult result = inner_->run(traced, seed);
    if (mls != nullptr) {
      const std::lock_guard lock(sink_.mutex);
      sink_.mls.push_back({mls->stats(), result.wall_seconds, traced.eval_seconds(),
                           mls->config().populations *
                               mls->config().threads_per_population});
    }
    return result;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<moo::Algorithm> inner_;
  CampaignSink& sink_;
};

/// Swaps traced factories into the process-wide registry for the campaign's
/// algorithms (the registry's last registration wins) and restores the
/// originals on destruction.
class RegistryShadow {
 public:
  explicit RegistryShadow(CampaignSink& sink) {
    expt::AlgorithmRegistry& registry = expt::AlgorithmRegistry::instance();
    for (const std::string& name : algorithms()) {
      const expt::AlgorithmRegistry::Entry original = *registry.find(name);
      saved_.push_back(original);
      registry.add({name, original.description,
                    [factory = original.factory, &sink](
                        const expt::Scale& scale, const moo::EvaluationEngine*) {
                      return std::make_unique<TracedAlgorithm>(
                          factory(scale, &sink.engine), sink);
                    }});
    }
  }
  ~RegistryShadow() {
    for (const expt::AlgorithmRegistry::Entry& entry : saved_) {
      expt::AlgorithmRegistry::instance().add(entry);
    }
  }
  RegistryShadow(const RegistryShadow&) = delete;
  RegistryShadow& operator=(const RegistryShadow&) = delete;

 private:
  std::vector<expt::AlgorithmRegistry::Entry> saved_;
};

Work work_of(const std::vector<expt::RunRecord>& records, const std::string& scenario) {
  Work w;
  for (const expt::RunRecord& r : records) {
    if (r.scenario != scenario) continue;
    const auto& c = r.telemetry.counters;
    const auto get = [&c](const char* name) {
      const auto it = c.find(name);
      return it == c.end() ? std::uint64_t{0} : it->second;
    };
    w.evals += get("fidelity.full.evals");
    w.runs += get("fidelity.full.sim_runs");
    w.events += get("fidelity.full.sim_events");
    w.screen_evals += get("fidelity.screen.evals");
    w.screen_runs += get("fidelity.screen.sim_runs");
    w.screen_events += get("fidelity.screen.sim_events");
  }
  return w;
}

}  // namespace

Outcome run_campaign_smoke(const Options& options, Tracer* tracer) {
  Outcome out;
  const std::size_t workers = load_threads();
  const std::map<std::uint64_t, std::uint64_t> pinned = load_digests(options.digests_path);
  const std::uint64_t digest_seed = options.seed % kDigestSeeds;

  std::vector<double> setup_s, wall_s, cps, efficiency, traced_wall, untraced_wall,
      attributed, raw_cps;
  Speed speed(workers);
  double peak_rss = 0.0;
  std::vector<std::map<std::string, double>> layers;
  std::vector<aedb::AedbTuningProblem::Detail> first_references;
  std::optional<std::map<std::string, std::uint64_t>> first_exact;
  const std::int64_t start = now_ns();

  for (std::size_t rep = 0; want_rep(rep, start, options); ++rep) {
    // Repetition 0 warms the process up and is checked but not reported;
    // in a traced run odd repetitions are traced.
    const bool warmup = rep == 0;
    const bool traced = tracer != nullptr && rep % 2 == 1;
    Tracer* rep_tracer = traced ? tracer : nullptr;

    // ---- set-up: catalog, plan, per-scenario problems + ensembles, driver ----
    const std::int64_t t_setup = now_ns();
    const expt::ExperimentPlan plan = make_plan(algorithms());
    expt::validate_plan(plan);
    const std::vector<expt::ExperimentPlan::Cell> cells =
        seeded_cells(plan, options.seed);
    std::vector<expt::ScenarioSpec> specs;
    std::vector<aedb::AedbTuningProblem::Detail> references;
    for (const std::string& key : plan.scenarios) {
      specs.push_back(expt::ScenarioCatalog::instance().resolve(key));
      const aedb::AedbTuningProblem problem(specs.back().problem_config(plan.scale));
      references.push_back(reference_evaluation(problem));
    }
    const expt::ExperimentDriver driver = make_driver();
    const double setup = static_cast<double>(now_ns() - t_setup) / 1e9;
    const bool measured = !warmup && !traced;
    if (first_references.empty()) {
      first_references = references;
    } else {
      for (std::size_t i = 0; i < references.size(); ++i) {
        if (!same_detail(first_references[i], references[i])) {
          out.fail(1, "set-up reference evaluation differs between repetitions");
        }
      }
    }

    // ---- timed phase: the cells, the reduction, the CSV encoding ----
    std::optional<CampaignSink> sink;
    std::optional<RegistryShadow> shadow;
    if (traced) {
      sink.emplace();
      sink->tracer = tracer;
      shadow.emplace(*sink);
    }
    if (measured) speed.before();
    out.attempted += cells.size();
    std::vector<expt::RunRecord> records;
    std::string csv;
    double run_cells_s = 0.0, reduce_s = 0.0, csv_s = 0.0;
    std::int64_t root_id = -1;
    const std::int64_t t0 = now_ns();
    try {
      const ScopedSpan root(rep_tracer, "perfbench.timed");
      root_id = root.id();
      {
        const ScopedSpan span(rep_tracer, "expt.run_cells");
        if (sink) sink->cells_parent = span.id();
        records = driver.run_cells(plan, cells);
      }
      const std::int64_t t1 = now_ns();
      std::vector<expt::IndicatorSample> samples;
      {
        const ScopedSpan span(rep_tracer, "expt.reduce");
        samples = expt::reduce_to_samples(plan, records);
      }
      const std::int64_t t2 = now_ns();
      {
        const ScopedSpan span(rep_tracer, "expt.csv_encode");
        csv = expt::indicator_csv(samples);
      }
      const std::int64_t t3 = now_ns();
      run_cells_s = static_cast<double>(t1 - t0) / 1e9;
      reduce_s = static_cast<double>(t2 - t1) / 1e9;
      csv_s = static_cast<double>(t3 - t2) / 1e9;
    } catch (const std::exception& e) {
      out.fail(cells.size(), std::string("campaign threw: ") + e.what());
      continue;
    }
    const double wall = static_cast<double>(now_ns() - t0) / 1e9;
    shadow.reset();
    if (measured) speed.after();
    // The program's own footprint: read before any calibration buffer.
    if (warmup) peak_rss = peak_rss_mib();

    // ---- output checks ----
    std::uint64_t evaluations = 0;
    std::uint64_t generational_cells = 0;
    double cell_wall_sum = 0.0;
    std::vector<double> cell_walls;
    std::map<std::string, std::uint64_t> exact;
    std::map<std::string, std::uint64_t> trajectory;
    const std::uint64_t declared = plan.scale.mls_total_evaluations();
    const std::uint64_t slack = plan.scale.mls_workers() * core::MlsConfig{}.feasible_init_retries;
    for (const expt::RunRecord& r : records) {
      evaluations += r.evaluations;
      cell_wall_sum += r.wall_seconds;
      cell_walls.push_back(r.wall_seconds);
      const std::string where = r.algorithm + " on " + r.scenario;
      if (const std::string why = check_front(r.front); !why.empty()) {
        out.fail(1, where + ": " + why);
      }
      const bool is_mls = r.algorithm == kMls;
      if (is_mls && (r.evaluations < declared || r.evaluations > declared + slack)) {
        out.fail(1, where + ": consumed " + std::to_string(r.evaluations) +
                        " evaluations for a declared budget of " + std::to_string(declared));
      }
      auto& into = is_mls ? trajectory : exact;
      for (const char* counter : {"evaluations", "sim.runs", "sim.events"}) {
        const auto it = r.telemetry.counters.find(counter);
        if (it != r.telemetry.counters.end()) {
          into[r.algorithm + "." + counter] += it->second;
        }
      }
      if (!is_mls) ++generational_cells;
    }
    const std::uint64_t digest = generational_digest(records);
    exact["generational.digest"] = digest;
    const auto pin = pinned.find(digest_seed);
    if (pin == pinned.end()) {
      out.fail(generational_cells,
               "no pinned digest for seed " + std::to_string(digest_seed) + " in " +
                   options.digests_path);
    } else if (pin->second != digest) {
      out.fail(generational_cells, "generational indicator rows digest " + hex64(digest) +
                                       " != pinned " + hex64(pin->second));
    }
    if (!first_exact) {
      first_exact = exact;
      out.exact = exact;
      out.trajectory = trajectory;
    } else if (*first_exact != exact) {
      out.fail(generational_cells, "generational work counters differ between repetitions");
    }

    const double busy_share =
        cell_wall_sum / (static_cast<double>(workers) * run_cells_s);
    if (!warmup) (traced ? traced_wall : untraced_wall).push_back(wall);
    if (warmup) continue;
    if (!traced) {
      setup_s.push_back(setup * speed.last());
      wall_s.push_back(wall * speed.last());
      cps.push_back(static_cast<double>(evaluations) / wall / speed.last());
      raw_cps.push_back(static_cast<double>(evaluations) / wall);
      efficiency.push_back(busy_share);
      continue;
    }

    std::map<std::string, double> m;
    m["expt.cells"] = static_cast<double>(records.size());
    m["expt.run_cells_s"] = run_cells_s;
    m["expt.reduce_s"] = reduce_s;
    m["expt.csv_encode_ms"] = csv_s * 1e3;
    m["expt.cell_wall_p50_s"] = quantile(cell_walls, 0.5);
    m["expt.cell_wall_max_s"] = quantile(cell_walls, 1.0);
    m["expt.worker_busy_share"] = busy_share;

    core::AedbMls::Stats sum;
    double mls_capacity = 0.0, mls_eval_s = 0.0;
    std::vector<double> mls_walls;
    for (const CampaignSink::MlsCell& c : sink->mls) {
      accumulate(sum, c.stats);
      mls_capacity += static_cast<double>(c.workers) * c.wall_s;
      mls_eval_s += c.eval_seconds;
      mls_walls.push_back(c.wall_s);
    }
    add_core_metrics(m, sum, mls_walls, mls_capacity > 0 ? mls_eval_s / mls_capacity : 0.0);
    m["core.eval_threads"] = static_cast<double>(distinct_threads(sink->log));
    const auto engine = sink->engine.stats();
    m["moo.engine_batches"] = static_cast<double>(engine.batches);
    m["moo.engine_chunks"] = static_cast<double>(engine.chunks);
    m["moo.engine_solutions"] = static_cast<double>(engine.solutions);

    LayerInputs inputs;
    inputs.log = &sink->log;
    inputs.threads = load_threads();
    std::uint64_t events = 0;
    for (const EvalLog::Scenario& s : sink->log.scenarios()) {
      // Match the log's scenarios to the plan's by node count and arena.
      Work w;
      for (const expt::ScenarioSpec& spec : specs) {
        const auto& net = s.config.scenario.network;
        if (spec.node_count() == net.node_count && spec.area_width_m == net.area_width &&
            spec.area_height_m == net.area_height) {
          w = work_of(records, spec.key);
        }
      }
      events += w.events + w.screen_events;
      inputs.work.push_back(w);
    }
    for (const expt::RunRecord& r : records) inputs.fronts.push_back(r.front);
    m["sim.events_per_candidate"] =
        static_cast<double>(events) / static_cast<double>(std::max<std::uint64_t>(evaluations, 1));
    std::vector<std::string> probe_failures;
    add_layer_metrics(inputs, m, out.flags, probe_failures);
    for (const std::string& why : probe_failures) out.fail(1, why);
    attributed.push_back(attributed_share(tracer->spans(), root_id));
    layers.push_back(std::move(m));
  }

  out.metrics["candidates_per_s"] = median(cps);
  out.metrics["wall_s"] = median(wall_s);
  out.metrics["setup_s"] = median(setup_s);
  out.metrics["parallel_efficiency"] = median(efficiency);
  out.metrics["peak_rss_mb"] = peak_rss;
  if (tracer != nullptr) {
    std::map<std::string, double> m = median_of(layers);
    m["trace.attributed_share"] = median(attributed);
    m["trace.overhead_ratio"] = median(traced_wall) / median(untraced_wall);
    out.metrics.insert(m.begin(), m.end());
  }
  out.info["grid"] = "3 algorithms x 2 scenarios x " + std::to_string(kRuns) + " runs";
  out.info["digest_seed"] = std::to_string(digest_seed);
  out.info["reps"] = std::to_string(setup_s.size());
  out.info["candidates_per_s_reps"] = join(cps);
  out.info["setup_s_reps"] = join(setup_s);
  out.info["raw_candidates_per_s_reps"] = join(raw_cps);
  out.info["speed_reps"] = join(speed.factors());
  return out;
}

int pin_campaign_digests(std::size_t count, const std::string& path) {
  const expt::ExperimentPlan plan = make_plan(generational());
  const expt::ExperimentDriver driver = make_driver();
  std::ofstream file(path, std::ios::trunc);
  file << "# campaign-smoke: FNV-1a 64 of the NSGAII/CellDE indicator CSV, by seed\n";
  for (std::uint64_t seed = 0; seed < count; ++seed) {
    const auto records = driver.run_cells(plan, seeded_cells(plan, seed));
    file << seed << ' ' << hex64(generational_digest(records)) << '\n';
  }
  return file ? 0 : 1;
}

}  // namespace perfbench
