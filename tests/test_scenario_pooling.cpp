/// Determinism regression suite for pooled simulation contexts: a pooled,
/// re-armed `run_scenario` must be **bitwise identical** to fresh
/// construction — across repeated runs, across differing scenarios
/// interleaved on one workspace (one context per network configuration)
/// or driven through one context (which rebuilds its graph), when a run
/// restores the beacon warm-up instead of simulating it, and at any
/// evaluation thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "aedb/scenario.hpp"
#include "aedb/simulation_context.hpp"
#include "aedb/tuning_problem.hpp"
#include "expt/scale.hpp"
#include "expt/scenario_catalog.hpp"
#include "moo/core/evaluation_engine.hpp"
#include "par/thread_pool.hpp"

namespace aedbmls::aedb {
namespace {

AedbParams test_params() {
  AedbParams params;
  params.min_delay_s = 0.1;
  params.max_delay_s = 0.8;
  params.border_threshold_dbm = -88.0;
  params.neighbors_threshold = 15.0;
  return params;
}

void expect_bitwise_equal(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.stats.network_size, b.stats.network_size);
  EXPECT_EQ(a.stats.coverage, b.stats.coverage);
  EXPECT_EQ(a.stats.forwardings, b.stats.forwardings);
  EXPECT_EQ(a.stats.energy_dbm_sum, b.stats.energy_dbm_sum);
  EXPECT_EQ(a.stats.energy_mj, b.stats.energy_mj);
  EXPECT_EQ(a.stats.broadcast_time_s, b.stats.broadcast_time_s);
  EXPECT_EQ(a.stats.collisions, b.stats.collisions);
  EXPECT_EQ(a.stats.mac_drops, b.stats.mac_drops);
  EXPECT_EQ(a.stats.drop_decisions, b.stats.drop_decisions);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(ScenarioPooling, PooledRunsMatchFreshConstructionBitwise) {
  const ScenarioConfig config = make_paper_scenario(100, 20130520, 3);
  const AedbParams params = test_params();
  const ScenarioResult fresh = run_scenario(config, params);

  ScenarioWorkspace workspace;
  for (int repeat = 0; repeat < 3; ++repeat) {
    const ScenarioResult pooled = run_scenario(config, params, workspace);
    expect_bitwise_equal(pooled, fresh);
  }
  // First run built the context; the two repeats hit the pooled graph.
  EXPECT_EQ(workspace.stats().context_misses, 1u);
  EXPECT_EQ(workspace.stats().context_hits, 2u);
}

TEST(ScenarioPooling, RepeatedRunsWithDifferentParamsStayFaithful) {
  const ScenarioConfig config = make_paper_scenario(100, 1, 0);
  AedbParams a = test_params();
  AedbParams b = test_params();
  b.max_delay_s = 1.4;
  b.border_threshold_dbm = -80.0;

  const ScenarioResult fresh_a = run_scenario(config, a);
  const ScenarioResult fresh_b = run_scenario(config, b);

  ScenarioWorkspace workspace;
  for (int repeat = 0; repeat < 2; ++repeat) {
    expect_bitwise_equal(run_scenario(config, a, workspace), fresh_a);
    expect_bitwise_equal(run_scenario(config, b, workspace), fresh_b);
  }
}

TEST(ScenarioPooling, InterleavedScenariosKeepOneContextEach) {
  // Same placement (seed, network, node count, area) but different network
  // dynamics: each configuration gets its own pooled context, so the
  // interleaving rebinds both without cross-contamination.
  ScenarioConfig walk = make_paper_scenario(100, 7, 2);
  ScenarioConfig still = walk;
  still.network.mobility = sim::MobilityKind::kStatic;
  still.network.max_speed = 0.0;
  const AedbParams params = test_params();

  const ScenarioResult fresh_walk = run_scenario(walk, params);
  const ScenarioResult fresh_still = run_scenario(still, params);

  ScenarioWorkspace workspace;
  for (int repeat = 0; repeat < 2; ++repeat) {
    expect_bitwise_equal(run_scenario(walk, params, workspace), fresh_walk);
    expect_bitwise_equal(run_scenario(still, params, workspace), fresh_still);
  }
  EXPECT_EQ(workspace.stats().context_misses, 2u);
  EXPECT_EQ(workspace.stats().context_hits, 2u);
}

/// The catalog presets that share the 200 devices/km^2 placement.  They
/// span 5 network configurations: d200, payload-small, payload-large and
/// deadline-tight differ only outside `NetworkConfig`.
const char* const kSharedPlacementPresets[] = {
    "d200",        "static-grid",   "highspeed",     "urban-canyon",
    "mixed-speed", "payload-small", "payload-large", "deadline-tight"};

TEST(ScenarioPooling, SharedPlacementPresetsPoolOneContextPerNetworkConfig) {
  const AedbParams params = test_params();
  std::vector<ScenarioConfig> configs;
  std::vector<ScenarioResult> fresh;
  for (const char* key : kSharedPlacementPresets) {
    configs.push_back(
        expt::ScenarioCatalog::instance().resolve(key).scenario_config(31, 1));
    fresh.push_back(run_scenario(configs.back(), params));
  }

  ScenarioWorkspace workspace;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      SCOPED_TRACE(kSharedPlacementPresets[i]);
      expect_bitwise_equal(run_scenario(configs[i], params, workspace),
                           fresh[i]);
    }
  }
  EXPECT_EQ(workspace.stats().context_misses, 5u);
  EXPECT_EQ(workspace.stats().context_hits, 11u);
}

TEST(ScenarioPooling, NodeCountChangeOnOneContextRebuildsSafely) {
  // Driving one context directly across node-count changes: every change
  // of network configuration rebuilds the graph on the kept simulator.
  const ScenarioConfig d100 = make_paper_scenario(100, 11, 0);
  const ScenarioConfig d200 = make_paper_scenario(200, 11, 0);
  const AedbParams params = test_params();

  const ScenarioResult fresh_100 = run_scenario(d100, params);
  const ScenarioResult fresh_200 = run_scenario(d200, params);

  SimulationContext context;
  expect_bitwise_equal(context.run(d100, params), fresh_100);
  expect_bitwise_equal(context.run(d200, params), fresh_200);
  expect_bitwise_equal(context.run(d100, params), fresh_100);
  EXPECT_EQ(context.stats().builds, 3u);
  EXPECT_EQ(context.stats().rebinds, 0u);
}

TEST(ScenarioPooling, ConfigChangeOnOneContextRebuildsThenRebinds) {
  // Equal node_count but different dynamics: each change rebuilds the
  // graph, and a repeat of the last configuration rebinds it.
  ScenarioConfig fast = make_paper_scenario(100, 5, 1);
  ScenarioConfig slow = fast;
  slow.network.max_speed = 0.5;
  const AedbParams params = test_params();

  const ScenarioResult fresh_fast = run_scenario(fast, params);
  const ScenarioResult fresh_slow = run_scenario(slow, params);

  SimulationContext context;
  expect_bitwise_equal(context.run(fast, params), fresh_fast);
  expect_bitwise_equal(context.run(slow, params), fresh_slow);
  expect_bitwise_equal(context.run(fast, params), fresh_fast);
  expect_bitwise_equal(context.run(fast, params), fresh_fast);
  EXPECT_EQ(context.stats().builds, 3u);
  EXPECT_EQ(context.stats().rebinds, 1u);
}

TEST(WarmupRestore, MatchingRunRestoresAndEachKeyFieldRecaptures) {
  // A run restores the warm-up only under the key it was captured with;
  // any other key simulates its warm-up, and its capture replaces the
  // context's one snapshot.
  const ScenarioConfig base = make_paper_scenario(100, 17, 2);
  const AedbParams params = test_params();
  using Flip = std::function<void(ScenarioConfig&)>;
  const std::vector<std::pair<const char*, Flip>> key_fields = {
      {"beacon_start", [](ScenarioConfig& c) { c.beacon_start = sim::seconds(26); }},
      {"beacon_period",
       [](ScenarioConfig& c) { c.beacon_period = sim::milliseconds(900); }},
      {"beacon_jitter",
       [](ScenarioConfig& c) { c.beacon_jitter = sim::milliseconds(20); }},
      {"beacon_bytes", [](ScenarioConfig& c) { c.beacon_bytes = 64; }},
      {"default_tx_dbm", [](ScenarioConfig& c) { c.default_tx_dbm = 14.0; }},
      {"broadcast_at", [](ScenarioConfig& c) { c.broadcast_at = sim::seconds(31); }},
  };

  SimulationContext context;
  std::uint64_t restores = 0;
  const auto expect_run = [&](const ScenarioConfig& config, bool restored) {
    expect_bitwise_equal(context.run(config, params), run_scenario(config, params));
    if (restored) ++restores;
    EXPECT_EQ(context.stats().restores, restores);
  };
  expect_run(base, false);  // builds the graph and captures
  expect_run(base, true);
  for (const auto& [field, flip] : key_fields) {
    SCOPED_TRACE(field);
    ScenarioConfig flipped = base;
    flip(flipped);
    expect_run(flipped, false);  // recaptures under its own key...
    expect_run(flipped, true);
    expect_run(base, false);     // ...which replaced base's snapshot
    expect_run(base, true);
  }
  EXPECT_EQ(context.stats().builds, 1u);
}

TEST(WarmupRestore, SettingsAfterTheBroadcastShareOneSnapshot) {
  // The AEDB parameters, the payload, the source draw, `end_at` and the
  // early stop act only from the broadcast on: none of them recaptures.
  const ScenarioConfig base = make_paper_scenario(100, 23, 1);
  AedbParams other = test_params();
  other.max_delay_s = 1.4;
  other.border_threshold_dbm = -80.0;
  ScenarioConfig changed = base;
  changed.data_bytes = 512;
  changed.random_source = false;
  changed.end_at = changed.broadcast_at + sim::seconds_d(2.25);
  changed.stop_when_bt_exceeds_s = 0.2;

  SimulationContext context;
  expect_bitwise_equal(context.run(base, test_params()),
                       run_scenario(base, test_params()));
  expect_bitwise_equal(context.run(changed, other), run_scenario(changed, other));
  expect_bitwise_equal(context.run(base, other), run_scenario(base, other));
  EXPECT_EQ(context.stats().restores, 2u);
}

TEST(WarmupRestore, BeaconsStartingAfterTheBroadcastCaptureAndRestore) {
  // No event fires before the broadcast: the snapshot holds every node's
  // first beacon timer and nothing else has happened yet.
  ScenarioConfig config = make_paper_scenario(100, 5, 2);
  config.beacon_start = config.broadcast_at + sim::milliseconds(500);
  const AedbParams params = test_params();
  const ScenarioResult fresh = run_scenario(config, params);

  SimulationContext context;
  for (int repeat = 0; repeat < 3; ++repeat) {
    expect_bitwise_equal(context.run(config, params), fresh);
  }
  EXPECT_EQ(context.stats().restores, 2u);
}

TEST(WarmupRestore, BusyChannelAtTheBroadcastRestoresExactly) {
  // Beacons every 2 ms from 5 ms before the broadcast saturate the
  // channel: when the broadcast fires, waves are in flight, receivers are
  // locked mid-frame and MACs hold queued frames and pending backoffs.
  ScenarioConfig config = make_paper_scenario(100, 29, 0);
  config.beacon_start = config.broadcast_at - sim::milliseconds(5);
  config.beacon_period = sim::milliseconds(2);
  config.beacon_jitter = sim::milliseconds(1);
  config.end_at = config.broadcast_at + sim::milliseconds(300);
  AedbParams other = test_params();
  other.max_delay_s = 0.2;
  const ScenarioResult fresh = run_scenario(config, test_params());
  const ScenarioResult fresh_other = run_scenario(config, other);

  SimulationContext context;
  for (int repeat = 0; repeat < 2; ++repeat) {
    expect_bitwise_equal(context.run(config, test_params()), fresh);
    expect_bitwise_equal(context.run(config, other), fresh_other);
  }
  EXPECT_EQ(context.stats().restores, 3u);
}

TEST(ScenarioPooling, ContextEvictionKeepsResultsCorrect) {
  // More distinct topologies than the context pool holds: evicted keys are
  // rebuilt on return and must still match fresh construction.
  const AedbParams params = test_params();
  ScenarioWorkspace workspace;
  const int kTopologies = 20;  // > ScenarioWorkspace's context capacity
  for (int round = 0; round < 2; ++round) {
    for (int net = 0; net < kTopologies; ++net) {
      const ScenarioConfig config =
          make_paper_scenario(100, 3, static_cast<std::uint64_t>(net));
      expect_bitwise_equal(run_scenario(config, params, workspace),
                           run_scenario(config, params));
    }
  }
  EXPECT_GT(workspace.stats().context_misses, static_cast<std::uint64_t>(kTopologies));
}

/// Every catalog preset plus the dynamic d<N> path: every knob they
/// exercise (mobility kind, arena, correlated shadowing, steep path loss,
/// waypoint speed spread, payload sizing) is a distinct way for a pooled
/// context to go stale.
std::vector<std::string> pooling_regimes() {
  std::vector<std::string> keys;
  for (const expt::ScenarioSpec& spec : expt::ScenarioCatalog::instance().specs()) {
    keys.push_back(spec.key);
  }
  keys.emplace_back("d150");
  return keys;
}

std::string sanitized(std::string name) {
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class RegimePooling : public ::testing::TestWithParam<std::string> {};

TEST_P(RegimePooling, FreshEqualsPooledBitwise) {
  // Two candidates on both fidelity tiers, alternating on one workspace:
  // every run after the first restores the first one's warm-up.
  const expt::ScenarioSpec spec =
      expt::ScenarioCatalog::instance().resolve(GetParam());
  const ScenarioConfig full = spec.scenario_config(31, 1);
  // The racing screen tier's shape: truncated 2.25 s after the broadcast,
  // with the infeasibility stop armed.
  ScenarioConfig screen = full;
  screen.end_at = std::min(full.end_at, full.broadcast_at + sim::seconds_d(2.25));
  screen.stop_when_bt_exceeds_s = 0.5;
  AedbParams other = test_params();
  other.max_delay_s = 1.4;
  other.border_threshold_dbm = -80.0;
  const std::vector<std::pair<const ScenarioConfig*, AedbParams>> runs = {
      {&full, test_params()},
      {&screen, other},
      {&full, other},
      {&screen, test_params()}};
  std::vector<ScenarioResult> fresh;
  for (const auto& [config, params] : runs) {
    fresh.push_back(run_scenario(*config, params));
  }

  ScenarioWorkspace workspace;
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      SCOPED_TRACE(i);
      expect_bitwise_equal(
          run_scenario(*runs[i].first, runs[i].second, workspace), fresh[i]);
    }
  }
  EXPECT_EQ(workspace.stats().context_misses, 1u);
  EXPECT_EQ(workspace.stats().context_hits, 7u);
  EXPECT_EQ(workspace.context_for(full.network).stats().restores, 7u);
}

INSTANTIATE_TEST_SUITE_P(CatalogRegimes, RegimePooling,
                         ::testing::ValuesIn(pooling_regimes()),
                         [](const auto& info) {
                           return sanitized(info.param);
                         });

class ThreadCountInvariance
    : public ::testing::TestWithParam<std::tuple<std::size_t, const char*>> {};

TEST_P(ThreadCountInvariance, PooledEvaluationIsThreadCountIndependent) {
  expt::Scale scale;
  scale.networks = 2;
  scale.seed = 9;
  const expt::ScenarioSpec spec =
      expt::ScenarioCatalog::instance().resolve(std::get<1>(GetParam()));
  const AedbTuningProblem problem(spec.problem_config(scale));

  // Reference: per-solution evaluate() on this thread (itself pooled via
  // the thread-local workspace — the pre-pooling fresh path is covered by
  // the bitwise suites above).
  Xoshiro256 rng(123);
  std::vector<moo::Solution> reference(4);
  for (moo::Solution& s : reference) s.x = problem.random_point(rng);
  std::vector<moo::Solution> batch = reference;
  for (moo::Solution& s : reference) problem.evaluate_into(s);

  const std::size_t threads = std::get<0>(GetParam());
  par::ThreadPool pool(threads);
  const moo::EvaluationEngine engine(&pool);
  engine.evaluate(problem, batch);

  ASSERT_EQ(batch.size(), reference.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(batch[i].objectives.size(), reference[i].objectives.size());
    for (std::size_t k = 0; k < batch[i].objectives.size(); ++k) {
      EXPECT_EQ(batch[i].objectives[k], reference[i].objectives[k])
          << "solution " << i << " objective " << k << " at " << threads
          << " threads";
    }
    EXPECT_EQ(batch[i].constraint_violation, reference[i].constraint_violation);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Threads, ThreadCountInvariance,
    ::testing::Combine(::testing::Values(1u, 4u, 12u),
                       ::testing::Values("d100", "urban-canyon", "mixed-speed",
                                         "payload-small", "payload-large")),
    [](const auto& info) {
      return sanitized(std::string(std::get<1>(info.param)) + "_" +
                       std::to_string(std::get<0>(info.param)) + "threads");
    });

}  // namespace
}  // namespace aedbmls::aedb
