#include "probes.hpp"

#include <algorithm>
#include <thread>

#include "aedb/scenario.hpp"
#include "aedb/simulation_context.hpp"
#include "common/rng.hpp"
#include "moo/core/aga_archive.hpp"
#include "moo/core/nds.hpp"
#include "moo/core/normalization.hpp"
#include "moo/indicators/hypervolume.hpp"
#include "sim/core/scheduler.hpp"
#include "sim/mobility/random_walk.hpp"
#include "sim/propagation/log_distance.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

/// Keeps a computed value alive so the timed loop is not optimised away.
template <class T>
void keep(const T& value) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r,m"(value) : "memory");
#else
  static volatile T sink;
  sink = value;
#endif
}

/// Repeats `body` until at least `min_ns` have passed; returns ns per call.
template <class Body>
double time_per_call(std::int64_t min_ns, Body&& body) {
  std::uint64_t calls = 0;
  const std::int64_t start = now_ns();
  std::int64_t elapsed = 0;
  do {
    body();
    ++calls;
    elapsed = now_ns() - start;
  } while (elapsed < min_ns);
  return static_cast<double>(elapsed) / static_cast<double>(calls);
}

constexpr std::int64_t kProbeNs = 20'000'000;  // 20 ms per probe
constexpr std::size_t kBuildRounds = 8;         // brief runs per network

bool same_result(const aedb::ScenarioResult& a, const aedb::ScenarioResult& b) {
  return a.events_executed == b.events_executed &&
         a.stats.coverage == b.stats.coverage &&
         a.stats.forwardings == b.stats.forwardings &&
         a.stats.energy_dbm_sum == b.stats.energy_dbm_sum &&
         a.stats.broadcast_time_s == b.stats.broadcast_time_s;
}

/// One thread's share of `probe_pooling`, as raw sums of thread CPU time
/// (like the evaluations' CPU time it is reconciled with, it leaves out any
/// wait for a core).
struct ReplaySums {
  std::int64_t rebind_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t runs = 0;
  std::int64_t build_ns = 0;  ///< fresh minus pooled brief runs
  std::uint64_t builds = 0;
  std::uint64_t rebinds = 0;
  std::string mismatch;
};

ReplaySums replay_on_this_thread(const aedb::AedbTuningProblem::Config& config,
                                 const std::vector<std::vector<double>>& decision_vectors) {
  ReplaySums sums;
  aedb::ScenarioWorkspace workspace;
  aedb::ScenarioConfig scenario = config.scenario;
  // Build every network's pooled context first (untimed).
  for (std::size_t net = 0; net < config.network_count; ++net) {
    scenario.network.network_index = net;
    keep(aedb::run_scenario(scenario, aedb::AedbParams{}, workspace).events_executed);
  }
  for (const std::vector<double>& x : decision_vectors) {
    const aedb::AedbParams params = aedb::AedbParams::from_vector(x);
    for (std::size_t net = 0; net < config.network_count; ++net) {
      scenario.network.network_index = net;
      const std::int64_t t0 = thread_cpu_ns();
      const aedb::ScenarioResult pooled = aedb::run_scenario(scenario, params, workspace);
      sums.rebind_ns += thread_cpu_ns() - t0;
      sums.events += pooled.events_executed;
      ++sums.runs;
      // fresh == pooled, on the first configuration of each network.
      if (sums.mismatch.empty() && sums.runs <= config.network_count &&
          !same_result(aedb::run_scenario(scenario, params), pooled)) {
        sums.mismatch = "pooled run differs from a fresh-construction run on network " +
                        std::to_string(net);
      }
    }
  }
  // Context build: a run that stops right after the broadcast starts (no
  // beacon or dissemination event fires) on a fresh context, minus the
  // same run on the pooled one.
  aedb::ScenarioConfig brief = config.scenario;
  brief.broadcast_at = sim::nanoseconds(1000);
  brief.end_at = sim::nanoseconds(2000);
  for (std::size_t round = 0; round < kBuildRounds; ++round) {
    for (std::size_t net = 0; net < config.network_count; ++net) {
      brief.network.network_index = net;
      const std::int64_t t0 = thread_cpu_ns();
      keep(aedb::run_scenario(brief, aedb::AedbParams{}).events_executed);
      const std::int64_t t1 = thread_cpu_ns();
      keep(aedb::run_scenario(brief, aedb::AedbParams{}, workspace).events_executed);
      sums.build_ns += (t1 - t0) - (thread_cpu_ns() - t1);
    }
  }
  for (std::size_t net = 0; net < config.network_count; ++net) {
    scenario.network.network_index = net;
    const auto& stats = workspace.context_for(scenario.network).stats();
    sums.builds += stats.builds;
    sums.rebinds += stats.rebinds;
  }
  sums.rebinds -= kBuildRounds * config.network_count;  // the brief runs'
  return sums;
}

}  // namespace

PoolingProbe probe_pooling(const aedb::AedbTuningProblem::Config& config,
                           const std::vector<std::vector<double>>& decision_vectors,
                           std::size_t threads) {
  // Every thread replays the whole sample at once, so the runs see the
  // same core, cache and memory contention as the workload's own workers.
  std::vector<ReplaySums> parts(std::max<std::size_t>(threads, 1));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < parts.size(); ++t) {
    pool.emplace_back([&, t] { parts[t] = replay_on_this_thread(config, decision_vectors); });
  }
  for (std::thread& thread : pool) thread.join();

  ReplaySums total;
  for (const ReplaySums& part : parts) {
    total.rebind_ns += part.rebind_ns;
    total.events += part.events;
    total.runs += part.runs;
    total.build_ns += part.build_ns;
    total.builds += part.builds;
    total.rebinds += part.rebinds;
    if (total.mismatch.empty()) total.mismatch = part.mismatch;
  }
  PoolingProbe probe;
  const std::size_t n = parts.size();
  probe.runs = total.runs / n;
  probe.builds = total.builds / n;
  probe.rebinds = total.rebinds / n;
  probe.mismatch = total.mismatch;
  probe.context_build_ms = static_cast<double>(total.build_ns) /
                           static_cast<double>(n * kBuildRounds * config.network_count) / 1e6;
  if (total.runs > 0) {
    probe.rebind_run_ms =
        static_cast<double>(total.rebind_ns) / static_cast<double>(total.runs) / 1e6;
    probe.ns_per_event = static_cast<double>(total.rebind_ns) /
                         static_cast<double>(std::max<std::uint64_t>(total.events, 1));
  }
  return probe;
}

MooProbe probe_moo(const std::vector<moo::Solution>& solutions,
                   const std::vector<std::vector<moo::Solution>>& fronts) {
  MooProbe probe;
  if (!solutions.empty()) {
    const double per_pass_ns = time_per_call(kProbeNs, [&] {
      moo::AgaArchive archive(100, 4);
      for (const moo::Solution& s : solutions) keep(archive.try_insert(s));
    });
    probe.archive_insert_us =
        per_pass_ns / static_cast<double>(solutions.size()) / 1e3;

    // A generational population's worth: NSGA-II sorts parents + offspring.
    const std::vector<moo::Solution> population(
        solutions.begin(),
        solutions.begin() + static_cast<std::ptrdiff_t>(
                                std::min<std::size_t>(200, solutions.size())));
    probe.nds_ms = time_per_call(kProbeNs, [&] {
                     keep(moo::fast_non_dominated_sort(population).size());
                   }) / 1e6;
  }

  std::vector<std::vector<moo::Solution>> normalised;
  for (const auto& front : fronts) {
    if (front.empty()) continue;
    normalised.push_back(moo::normalize_front(front, moo::bounds_of(front)));
  }
  if (!normalised.empty()) {
    const std::vector<double> reference = moo::unit_reference(3);
    const double per_pass_ns = time_per_call(kProbeNs, [&] {
      for (const auto& front : normalised) keep(moo::hypervolume(front, reference));
    });
    probe.hv_ms = per_pass_ns / static_cast<double>(normalised.size()) / 1e6;
  }
  return probe;
}

SimProbe probe_sim(const sim::NetworkConfig& network, std::size_t depth) {
  SimProbe probe;
  depth = std::max<std::size_t>(depth, 1);

  // Scheduler churn at a steady queue depth: pop the earliest event and
  // schedule a successor a pseudo-random delay later.
  {
    sim::Scheduler scheduler;
    std::uint64_t lcg = 1;
    const auto next_delay = [&lcg] {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      return sim::nanoseconds(static_cast<std::int64_t>(lcg >> 44));
    };
    for (std::size_t i = 0; i < depth; ++i) scheduler.insert(next_delay(), [] {});
    probe.scheduler_op_ns = time_per_call(kProbeNs, [&] {
      for (int i = 0; i < 256; ++i) {
        const sim::Time when = scheduler.pop().when;
        scheduler.insert(when + next_delay(), [] {});
      }
    }) / 256.0;
  }

  {
    const sim::LogDistancePropagation model(network.propagation);
    const aedbmls::CounterRng rng(7);
    std::vector<sim::Vec2> points(256);
    for (std::size_t i = 0; i < points.size(); ++i) {
      points[i] = sim::Vec2{rng.uniform(2 * i) * network.area_width,
                            rng.uniform(2 * i + 1) * network.area_height};
    }
    probe.propagation_rx_ns = time_per_call(kProbeNs, [&] {
      double sum = 0.0;
      for (std::size_t i = 0; i + 1 < points.size(); ++i) {
        sum += model.rx_power_dbm(16.02, points[i], points[i + 1]);
      }
      keep(sum);
    }) / static_cast<double>(points.size() - 1);
  }

  {
    sim::RandomWalkMobility::Config config;
    config.width = network.area_width;
    config.height = network.area_height;
    config.min_speed = network.min_speed;
    config.max_speed = network.max_speed;
    config.epoch = network.mobility_epoch;
    const sim::RandomWalkMobility walk(
        config, {network.area_width / 2, network.area_height / 2}, aedbmls::CounterRng(1));
    std::int64_t t = 0;
    probe.mobility_query_ns = time_per_call(kProbeNs, [&] {
      for (int i = 0; i < 256; ++i) {
        t += 13'000;  // 13 us steps cross an epoch now and then
        keep(walk.position(sim::nanoseconds(t)));
      }
    }) / 256.0;
  }
  return probe;
}

}  // namespace perfbench
