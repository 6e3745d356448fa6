#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <thread>
#include <cmath>
#include <sstream>

#include "aedb/scenario.hpp"
#include "moo/core/dominance.hpp"
#include "probes.hpp"

namespace perfbench {

void Outcome::fail(std::uint64_t operations, const std::string& why) {
  failed += operations;
  failures.push_back(why);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::string join(const std::vector<double>& values) {
  std::ostringstream out;
  out.precision(6);
  for (std::size_t i = 0; i < values.size(); ++i) out << (i ? " " : "") << values[i];
  return out.str();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double calibration_rate(std::size_t threads, int ms) {
  std::vector<double> rates(std::max<std::size_t>(threads, 1));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < rates.size(); ++t) {
    pool.emplace_back([&rates, t, ms] {
      std::uint64_t lcg = 0x9E3779B97F4A7C15ULL + t;
      const auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 40;
      };
      // A scheduler-sized heap plus random reads over a buffer larger than
      // a core's cache share: the simulator's mix of compute and memory.
      std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
      for (int i = 0; i < 65536; ++i) heap.push(next());
      std::vector<std::uint32_t> buffer(std::size_t{1} << 20);  // 4 MiB
      for (std::uint32_t& word : buffer) word = static_cast<std::uint32_t>(next());
      std::uint64_t ops = 0;
      std::uint64_t acc = 0;
      const std::int64_t start = now_ns();
      const std::int64_t stop = start + std::int64_t{ms} * 1'000'000;
      std::int64_t now = start;
      while (now < stop) {
        for (int i = 0; i < 1024; ++i) {
          const std::uint64_t top = heap.top();
          heap.pop();
          acc += buffer[(acc ^ top) & (buffer.size() - 1)];
          heap.push(top + next() + (acc & 1));
        }
        ops += 1024;
        now = now_ns();
      }
      rates[t] = static_cast<double>(ops) / (static_cast<double>(now - start) / 1e9);
    });
  }
  for (std::thread& thread : pool) thread.join();
  double sum = 0.0;
  for (const double r : rates) sum += r;
  return sum / static_cast<double>(rates.size());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

Work Work::of(const aedb::AedbTuningProblem& problem) {
  Work w;
  const auto full = problem.tier_counters(0);
  w.evals = full.evaluations;
  w.runs = full.scenario_runs;
  w.events = full.events_executed;
  if (const std::size_t tier = problem.screening_tier(); tier != 0) {
    const auto screen = problem.tier_counters(tier);
    w.screen_evals = screen.evaluations;
    w.screen_runs = screen.scenario_runs;
    w.screen_events = screen.events_executed;
  }
  return w;
}

Work Work::operator-(const Work& before) const {
  return {evals - before.evals,           runs - before.runs,
          events - before.events,         screen_evals - before.screen_evals,
          screen_runs - before.screen_runs, screen_events - before.screen_events};
}

std::string check_front(const std::vector<moo::Solution>& front) {
  // Under constraint-domination a feasible point dominates every infeasible
  // one, so a front is either all feasible or (no feasible point found) all
  // infeasible.
  const bool any_feasible = std::any_of(front.begin(), front.end(),
                                        [](const moo::Solution& s) { return s.feasible(); });
  for (std::size_t i = 0; i < front.size(); ++i) {
    if (any_feasible && !front[i].feasible()) {
      return "front member " + std::to_string(i) + " is infeasible beside feasible ones";
    }
    for (std::size_t j = 0; j < front.size(); ++j) {
      if (i != j && moo::dominates(front[i], front[j])) {
        return "front member " + std::to_string(i) + " dominates member " +
               std::to_string(j);
      }
    }
  }
  return {};
}

bool fronts_identical(const std::vector<moo::Solution>& a,
                      const std::vector<moo::Solution>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].objectives != b[i].objectives || a[i].x != b[i].x ||
        a[i].constraint_violation != b[i].constraint_violation) {
      return false;
    }
  }
  return true;
}

aedb::AedbTuningProblem::Detail reference_evaluation(
    const aedb::AedbTuningProblem& problem) {
  aedb::ScenarioWorkspace workspace;
  return problem.evaluate_detail(aedb::AedbParams{}, workspace);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

/// Up to `count` decision vectors spread over `solutions` after a
/// canonical sort, so deterministic walks replay the same sample.
std::vector<std::vector<double>> replay_sample(std::vector<moo::Solution> solutions,
                                               std::size_t count) {
  std::sort(solutions.begin(), solutions.end(),
            [](const moo::Solution& a, const moo::Solution& b) { return a.x < b.x; });
  std::vector<std::vector<double>> out;
  if (solutions.empty()) return out;
  count = std::min(count, solutions.size());
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(solutions[i * solutions.size() / count].x);
  }
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void accumulate(aedbmls::core::AedbMls::Stats& into, const aedbmls::core::AedbMls::Stats& s) {
  into.evaluations += s.evaluations;
  into.accepted_moves += s.accepted_moves;
  into.rejected_infeasible += s.rejected_infeasible;
  into.resets += s.resets;
  into.archive_inserts_accepted += s.archive_inserts_accepted;
  into.screened += s.screened;
  into.screen_rejected += s.screen_rejected;
  into.promoted += s.promoted;
}

void add_core_metrics(std::map<std::string, double>& m,
                      const aedbmls::core::AedbMls::Stats& s,
                      const std::vector<double>& run_walls, double eval_busy_share) {
  m["core.mls_run_s"] = median(run_walls);
  m["core.eval_busy_share"] = eval_busy_share;
  m["core.accepted_moves"] = static_cast<double>(s.accepted_moves);
  m["core.rejected_infeasible"] = static_cast<double>(s.rejected_infeasible);
  m["core.resets"] = static_cast<double>(s.resets);
  m["core.archive_inserts_accepted"] = static_cast<double>(s.archive_inserts_accepted);
  m["core.accept_ratio"] = ratio(static_cast<double>(s.accepted_moves),
                                 static_cast<double>(s.accepted_moves + s.rejected_infeasible));
  m["core.screened"] = static_cast<double>(s.screened);
  m["core.screen_rejected"] = static_cast<double>(s.screen_rejected);
  m["core.promoted"] = static_cast<double>(s.promoted);
  m["core.screen_reject_ratio"] =
      ratio(static_cast<double>(s.screen_rejected), static_cast<double>(s.screened));
}

void add_layer_metrics(const LayerInputs& in, std::map<std::string, double>& m,
                       std::vector<std::string>& flags,
                       std::vector<std::string>& failures) {
  // Reconciliation gap that gets flagged: time the replayed layers do not
  // account for.  Below it lies noise — the replay runs seconds after the
  // workload, and a shared host's clock speed drifts between such moments.
  constexpr double kTolerance = 0.25;
  constexpr std::size_t kReplayVectors = 16;
  constexpr std::size_t kMooSolutions = 2000;
  const std::vector<EvalSample> samples = in.log->samples();
  const std::vector<EvalLog::Scenario> scenarios = in.log->scenarios();

  Work total;
  for (const Work& w : in.work) {
    total.evals += w.evals;
    total.runs += w.runs;
    total.events += w.events;
    total.screen_evals += w.screen_evals;
    total.screen_runs += w.screen_runs;
    total.screen_events += w.screen_events;
  }
  std::vector<double> warm_full;
  std::vector<double> warm_full_cpu;
  std::vector<double> screen_ms;
  double cold_sum = 0.0;
  std::size_t cold_count = 0;
  for (const EvalSample& s : samples) {
    if (s.cold) {
      cold_sum += s.ms;
      ++cold_count;
    } else if (s.tier == 0) {
      warm_full.push_back(s.ms);
      warm_full_cpu.push_back(s.cpu_ms);
    } else {
      screen_ms.push_back(s.ms);
    }
  }
  m["aedb.evals"] = static_cast<double>(total.evals);
  m["aedb.sim_runs"] = static_cast<double>(total.runs);
  m["aedb.runs_per_eval"] =
      ratio(static_cast<double>(total.runs), static_cast<double>(total.evals));
  m["aedb.eval_ms_p50"] = quantile(warm_full, 0.5);
  m["aedb.eval_ms_p99"] = quantile(warm_full, 0.99);
  m["aedb.eval_cpu_ms_p50"] = quantile(warm_full_cpu, 0.5);
  m["aedb.cold_eval_ms"] = ratio(cold_sum, static_cast<double>(cold_count));
  m["aedb.screen.evals"] = static_cast<double>(total.screen_evals);
  m["aedb.screen.sim_runs"] = static_cast<double>(total.screen_runs);
  m["aedb.screen.eval_ms_p50"] = quantile(screen_ms, 0.5);
  m["sim.events"] = static_cast<double>(total.events + total.screen_events);
  m["sim.events_per_run"] =
      ratio(static_cast<double>(total.events), static_cast<double>(total.runs));

  // Per-scenario probes, weighted by the scenario's full-tier runs.
  double weight_sum = 0.0;
  double build_ms = 0.0, rebind_ms = 0.0, ns_per_event = 0.0;
  double scheduler_ns = 0.0, propagation_ns = 0.0, mobility_ns = 0.0;
  double events_gap = 0.0, eval_gap = 0.0;
  std::vector<moo::Solution> solutions;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const EvalLog::Scenario& scenario = scenarios[i];
    const Work w = i < in.work.size() ? in.work[i] : Work{};
    for (const moo::Solution& s : scenario.solutions) {
      if (solutions.size() < kMooSolutions) solutions.push_back(s);
    }
    const PoolingProbe pool =
        probe_pooling(scenario.config, replay_sample(scenario.solutions, kReplayVectors),
                      in.threads);
    if (!pool.mismatch.empty()) failures.push_back(pool.mismatch);
    const auto& network = scenario.config.scenario.network;
    const SimProbe sim = probe_sim(network, network.node_count);
    const std::string label = std::to_string(network.node_count) + "-node scenario";
    if (pool.builds != scenario.config.network_count || pool.rebinds != pool.runs) {
      flags.push_back(label + ": replay expected " +
                      std::to_string(scenario.config.network_count) +
                      " context builds, saw " + std::to_string(pool.builds));
    }

    const double weight = static_cast<double>(std::max<std::uint64_t>(w.runs, 1));
    weight_sum += weight;
    build_ms += weight * pool.context_build_ms;
    rebind_ms += weight * pool.rebind_run_ms;
    ns_per_event += weight * pool.ns_per_event;
    scheduler_ns += weight * sim.scheduler_op_ns;
    propagation_ns += weight * sim.propagation_rx_ns;
    mobility_ns += weight * sim.mobility_query_ns;

    // Reconciliation: the workload's own run mix at the replay's cost per
    // event must predict the replay's run time, and runs per evaluation at
    // that run time must predict the traced evaluation median.
    if (w.runs == 0 || w.evals == 0 || pool.runs == 0) continue;
    // Mean evaluation CPU time, not wall (where threads outnumber cores, as
    // with the campaign's MLS cells, wall time also holds the wait for a
    // core) and not the median (evaluation cost is skewed; the replay
    // predicts a mean).
    double warm_cpu_sum = 0.0;
    std::size_t warm_count = 0;
    for (const EvalSample& s : samples) {
      if (!s.cold && s.tier == 0 && s.scenario == i) {
        warm_cpu_sum += s.cpu_ms;
        ++warm_count;
      }
    }
    const double events_per_run =
        static_cast<double>(w.events) / static_cast<double>(w.runs);
    const double predicted_run_ms = events_per_run * pool.ns_per_event / 1e6;
    const double gap1 = std::abs(ratio(predicted_run_ms, pool.rebind_run_ms) - 1.0);
    const double predicted_eval_ms = static_cast<double>(w.runs) /
                                     static_cast<double>(w.evals) * pool.rebind_run_ms;
    const double mean_cpu_ms = ratio(warm_cpu_sum, static_cast<double>(warm_count));
    // Without warm full-tier evaluations (every one was a thread's first)
    // there is nothing to predict; only the first check applies.
    const double gap2 =
        warm_count == 0 ? 0.0 : std::abs(ratio(predicted_eval_ms, mean_cpu_ms) - 1.0);
    events_gap = std::max(events_gap, gap1);
    eval_gap = std::max(eval_gap, gap2);
    std::ostringstream note;
    if (gap1 > kTolerance) {
      note << label << ": events_per_run x ns_per_event = " << predicted_run_ms
           << " ms vs rebind_run_ms " << pool.rebind_run_ms << " ms";
      flags.push_back(note.str());
      note.str("");
    }
    if (gap2 > kTolerance) {
      note << label << ": runs_per_eval x rebind_run_ms = " << predicted_eval_ms
           << " ms vs mean evaluation CPU " << mean_cpu_ms << " ms";
      flags.push_back(note.str());
    }
  }
  weight_sum = std::max(weight_sum, 1.0);
  m["aedb.context_build_ms"] = build_ms / weight_sum;
  m["aedb.rebind_run_ms"] = rebind_ms / weight_sum;
  m["sim.ns_per_event"] = ns_per_event / weight_sum;
  m["sim.scheduler_op_ns"] = scheduler_ns / weight_sum;
  m["sim.propagation_rx_ns"] = propagation_ns / weight_sum;
  m["sim.mobility_query_ns"] = mobility_ns / weight_sum;
  m["trace.events_gap"] = events_gap;
  m["trace.eval_gap"] = eval_gap;

  const MooProbe moo_probe = probe_moo(solutions, in.fronts);
  m["moo.archive_insert_us"] = moo_probe.archive_insert_us;
  m["moo.nds_ms"] = moo_probe.nds_ms;
  m["moo.hv_ms"] = moo_probe.hv_ms;
}

double attributed_share(const std::vector<Span>& spans, std::int64_t root) {
  const Span& parent = spans[static_cast<std::size_t>(root)];
  std::vector<std::pair<std::int64_t, std::int64_t>> children;
  for (const Span& s : spans) {
    if (s.parent == root) children.emplace_back(s.start_ns, s.end_ns);
  }
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = parent.start_ns;
  for (const auto& [start, end] : children) {
    const std::int64_t from = std::max(start, reach);
    const std::int64_t to = std::min(end, parent.end_ns);
    if (to > from) covered += to - from;
    reach = std::max(reach, to);
  }
  return ratio(static_cast<double>(covered),
               static_cast<double>(parent.end_ns - parent.start_ns));
}

std::map<std::string, double> median_of(
    const std::vector<std::map<std::string, double>>& reps) {
  std::map<std::string, std::vector<double>> columns;
  for (const auto& rep : reps) {
    for (const auto& [name, value] : rep) columns[name].push_back(value);
  }
  std::map<std::string, double> out;
  for (auto& [name, values] : columns) out[name] = median(std::move(values));
  return out;
}

}  // namespace perfbench
