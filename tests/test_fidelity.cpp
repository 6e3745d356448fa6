// The multi-fidelity ladder end to end: conservative screening tiers are
// provable lower bounds of the full evaluation, mixed-tier batches are
// deterministic, racing-mode MLS reproduces full-fidelity fronts
// byte-for-byte, and whole-campaign tier rebasing is fingerprinted
// distinctly.

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "aedb/scenario.hpp"
#include "aedb/tuning_problem.hpp"
#include "common/rng.hpp"
#include "core/mls.hpp"
#include "core/search_criteria.hpp"
#include "expt/experiment.hpp"
#include "expt/scenario_catalog.hpp"
#include "moo/core/evaluation_engine.hpp"

namespace aedbmls {
namespace {

using aedb::AedbParams;
using aedb::AedbTuningProblem;
using expt::ExperimentPlan;
using expt::Scale;
using expt::ScenarioCatalog;

Scale tiny_scale() {
  Scale scale;
  scale.networks = 2;
  scale.runs = 1;
  scale.evals = 12;
  return scale;
}

AedbTuningProblem::Config problem_config(const std::string& scenario,
                                         const Scale& scale) {
  return ScenarioCatalog::instance().resolve(scenario).problem_config(scale);
}

std::vector<double> random_point(Xoshiro256& rng) {
  std::vector<double> x;
  for (const auto& [lo, hi] : AedbParams::domain()) {
    x.push_back(rng.uniform(lo, hi));
  }
  return x;
}

TEST(FidelityLadder, DefaultLadderShapesTheProblem) {
  const auto ladder = expt::default_fidelity_ladder();
  ASSERT_EQ(ladder.size(), 1u);
  EXPECT_EQ(ladder[0].name, "screen");
  EXPECT_TRUE(ladder[0].conservative);

  const AedbTuningProblem problem(problem_config("d100", tiny_scale()));
  EXPECT_EQ(problem.fidelity_levels(), 2u);
  EXPECT_EQ(problem.screening_tier(), 1u);  // "screen", 1-based
}

TEST(FidelityLadder, TierNameResolutionAndValidation) {
  const expt::ScenarioSpec spec = ScenarioCatalog::instance().resolve("d100");
  EXPECT_EQ(spec.fidelity_tier_index("full"), 0u);
  EXPECT_EQ(spec.fidelity_tier_index("screen"), 1u);
  EXPECT_THROW((void)spec.fidelity_tier_index("sketch"),
               std::invalid_argument);
  EXPECT_THROW((void)spec.fidelity_tier_index("warp"), std::invalid_argument);
}

// The load-bearing property of the whole design: the screen tier's
// constraint violation never exceeds the full tier's, so violation > 0 at
// the screen *proves* infeasibility at full fidelity — a screen-rejected
// candidate would also have been rejected by the exact evaluation, with
// zero false rejections of feasible points.
TEST(FidelityLadder, ConservativeScreenLowerBoundsTheFullViolation) {
  const AedbTuningProblem problem(problem_config("d100", tiny_scale()));
  Xoshiro256 rng(7);
  std::size_t full_infeasible = 0;
  std::size_t screened_infeasible = 0;
  for (int i = 0; i < 30; ++i) {
    auto x = random_point(rng);
    if (i >= 20) {
      // Delay-heavy corner: per-hop forwarding delays of 3-5 s produce
      // deliveries that straddle the screen window's edge, so some points
      // are provably infeasible from the truncated run alone.
      x[AedbParams::kMinDelay] = 1.0;
      x[AedbParams::kMaxDelay] = 3.0 + rng.uniform() * 2.0;
    }
    const auto full = problem.evaluate_at(x, 0);
    const auto screen = problem.evaluate_at(x, 1);
    EXPECT_LE(screen.constraint_violation, full.constraint_violation)
        << "screen must lower-bound the full violation";
    if (full.constraint_violation > 0.0) ++full_infeasible;
    if (screen.constraint_violation > 0.0) {
      ++screened_infeasible;
      EXPECT_GT(full.constraint_violation, 0.0)
          << "screen rejection must imply full-fidelity rejection";
    }
  }
  // Guard against testing the bound vacuously: the sample must contain
  // both infeasible points and at least one the screen alone can prove.
  EXPECT_GT(full_infeasible, 0u);
  EXPECT_GT(screened_infeasible, 0u);
}

// Under the deadline-tight preset the default screen window (2.25 s) is
// wider than the whole ensemble rejection budget (0.5 s limit x networks),
// so one truncated network's broadcast time alone can cross the threshold
// — the screen proves infeasibility after a single scenario run instead
// of `networks` full ones.  This is the regime where racing campaigns
// post their biggest throughput wins (see bench_fidelity_screening).
TEST(FidelityLadder, TightDeadlineScreenProvesInfeasibilityFromOneNetwork) {
  const AedbTuningProblem problem(
      problem_config("deadline-tight", tiny_scale()));
  // Delay-heavy corner: every node forwards (neighbour threshold at the
  // domain cap) with 1-5 s per-hop delays, so late first receptions blow
  // far through a 0.5 s deadline within the screen window.  Domain-cap
  // values beyond the box are clamped like any optimiser move would be.
  std::vector<double> x = {1.0, 5.0, -70.0, 0.0, 20.0};
  problem.clamp(x);
  const auto screen = problem.evaluate_at(x, 1);
  EXPECT_GT(screen.constraint_violation, 0.0);
  EXPECT_EQ(problem.tier_counters(1).scenario_runs, 1u)
      << "the screen should early-exit after the first network";
  // ...and conservatism still holds: full fidelity agrees.
  const auto full = problem.evaluate_at(x, 0);
  EXPECT_GE(full.constraint_violation, screen.constraint_violation);
}

TEST(FidelityLadder, InfeasibilityStopCutsProvenScreensShort) {
  const expt::ScenarioSpec spec =
      ScenarioCatalog::instance().resolve("deadline-tight");
  aedb::ScenarioConfig config = spec.scenario_config(1);
  config.end_at = config.broadcast_at +
                  sim::seconds_d(spec.fidelity_tiers.at(0).window_s);
  const std::vector<double> x = {1.0, 5.0, -70.0, 0.0, 20.0};
  const AedbParams params = AedbParams::from_vector(x);

  const aedb::ScenarioResult full_window = aedb::run_scenario(config, params);
  config.stop_when_bt_exceeds_s = 1.0;
  const aedb::ScenarioResult stopped = aedb::run_scenario(config, params);
  // Same verdict, fewer events: the run halts at the proving reception
  // instead of simulating out the rest of the screen window.
  EXPECT_GT(stopped.stats.broadcast_time_s, 1.0);
  EXPECT_LE(stopped.stats.broadcast_time_s,
            full_window.stats.broadcast_time_s);
  EXPECT_LT(stopped.events_executed, full_window.events_executed);

  // The pooled path replays the armed run bitwise (determinism contract).
  aedb::ScenarioWorkspace workspace;
  const aedb::ScenarioResult pooled =
      aedb::run_scenario(config, params, workspace);
  EXPECT_EQ(std::memcmp(&pooled.stats, &stopped.stats, sizeof pooled.stats),
            0);
  EXPECT_EQ(pooled.events_executed, stopped.events_executed);

  // The stop fired inside a reception, with the rest of that
  // transmission's fan-out still pending.  The context it left behind
  // must re-arm to a fresh run: first the full window, then the stop.
  aedb::ScenarioConfig full_config = config;
  full_config.stop_when_bt_exceeds_s = -1.0;
  const aedb::ScenarioResult rearmed =
      aedb::run_scenario(full_config, params, workspace);
  EXPECT_EQ(std::memcmp(&rearmed.stats, &full_window.stats, sizeof rearmed.stats),
            0);
  EXPECT_EQ(rearmed.events_executed, full_window.events_executed);
  const aedb::ScenarioResult stopped_again =
      aedb::run_scenario(config, params, workspace);
  EXPECT_EQ(std::memcmp(&stopped_again.stats, &stopped.stats,
                        sizeof stopped_again.stats),
            0);
  EXPECT_EQ(stopped_again.events_executed, stopped.events_executed);
}

TEST(FidelityLadder, TiersAreDeterministicAcrossInstancesAndBatches) {
  const auto config = problem_config("d100", tiny_scale());
  const AedbTuningProblem a(config);
  const AedbTuningProblem b(config);
  Xoshiro256 rng(11);
  const auto x = random_point(rng);
  for (std::size_t tier = 0; tier < a.fidelity_levels(); ++tier) {
    const auto direct = a.evaluate_at(x, tier);
    const auto again = b.evaluate_at(x, tier);
    EXPECT_EQ(direct.objectives, again.objectives) << "tier " << tier;
    EXPECT_EQ(direct.constraint_violation, again.constraint_violation);

    // A mixed-tier batch must reproduce the per-call results bit for bit.
    moo::Solution s;
    s.x = x;
    s.fidelity = static_cast<std::uint32_t>(tier);
    a.evaluate_batch(std::span<moo::Solution>(&s, 1));
    EXPECT_EQ(s.objectives, direct.objectives) << "tier " << tier;
    EXPECT_EQ(s.fidelity, tier);
    EXPECT_TRUE(s.evaluated);
  }
}

TEST(FidelityLadder, PerTierCountersSplitTheWork) {
  const AedbTuningProblem problem(problem_config("d100", tiny_scale()));
  Xoshiro256 rng(3);
  const auto x = random_point(rng);
  (void)problem.evaluate_at(x, 0);
  (void)problem.evaluate_at(x, 1);
  (void)problem.evaluate_at(x, 1);

  EXPECT_EQ(problem.tier_counters(0).evaluations, 1u);
  EXPECT_EQ(problem.tier_counters(1).evaluations, 2u);
  // The screen tier may exit early but never runs more than the full
  // ensemble.
  EXPECT_LE(problem.tier_counters(1).scenario_runs, 4u);
  // Tier totals roll up into the legacy aggregate counters.
  EXPECT_EQ(problem.scenario_runs(),
            problem.tier_counters(0).scenario_runs +
                problem.tier_counters(1).scenario_runs);
  EXPECT_GT(problem.events_executed(), 0u);
  // The screen is strictly cheaper per evaluation than the full tier.
  EXPECT_LT(problem.tier_counters(1).events_executed / 2,
            problem.tier_counters(0).events_executed);
}

TEST(FidelityLadder, ForcedTierRebasesRequestedFullEvaluations) {
  auto config = problem_config("d100", tiny_scale());
  config.forced_tier = 1;
  const AedbTuningProblem problem(config);
  Xoshiro256 rng(5);
  const auto x = random_point(rng);
  const auto result = problem.evaluate(x);

  const AedbTuningProblem exact(problem_config("d100", tiny_scale()));
  const auto screen = exact.evaluate_at(x, 1);
  EXPECT_EQ(result.objectives, screen.objectives);
  EXPECT_EQ(problem.tier_counters(0).evaluations, 0u);
  EXPECT_EQ(problem.tier_counters(1).evaluations, 1u);
}

// The tentpole acceptance property: racing-mode MLS (screen speculative
// moves at the conservative tier, promote survivors) must admit the exact
// same points as a plain full-fidelity run — the reported front is
// byte-identical; only the work profile changes.
TEST(FidelityRacing, MlsRaceFrontIsByteIdenticalToFull) {
  const AedbTuningProblem problem(problem_config("d100", tiny_scale()));

  core::MlsConfig uninterrupted;
  uninterrupted.populations = 1;
  uninterrupted.threads_per_population = 2;
  uninterrupted.evaluations_per_thread = 8;
  uninterrupted.reset_period = 50;  // > budget: one epoch, no resets
  uninterrupted.archive_capacity = 100;
  uninterrupted.criteria = core::aedb_criteria();
  // Two islands resetting every 4 candidates into a 3-point archive: reset
  // samples and evictions both shape the walk.
  core::MlsConfig resetting = uninterrupted;
  resetting.populations = 2;
  resetting.evaluations_per_thread = 12;
  resetting.reset_period = 4;
  resetting.archive_capacity = 3;

  const moo::EvaluationEngine engine;  // pool-less: walks get a run-local pool
  for (const core::MlsConfig& base : {uninterrupted, resetting}) {
    for (const std::uint64_t seed : {1ull, 42ull}) {
      core::MlsConfig full_config = base;
      core::AedbMls full(full_config);
      const auto full_result = full.run(problem, seed);

      core::MlsConfig race_config = base;
      race_config.screen_moves = true;
      race_config.evaluator = &engine;
      core::AedbMls race(race_config);
      const auto race_result = race.run(problem, seed);

      if (base.reset_period < base.evaluations_per_thread) {
        EXPECT_GT(full.stats().resets, 0u);
      }
      ASSERT_EQ(race_result.front.size(), full_result.front.size())
          << "seed " << seed;
      for (std::size_t i = 0; i < full_result.front.size(); ++i) {
        EXPECT_EQ(race_result.front[i].objectives,
                  full_result.front[i].objectives)
            << "seed " << seed << " point " << i;
        EXPECT_EQ(race_result.front[i].x, full_result.front[i].x);
        EXPECT_EQ(race_result.front[i].constraint_violation,
                  full_result.front[i].constraint_violation);
      }
      // Both modes walk the identical candidate sequence, but the racing
      // run pays no full simulation for screen-proven rejections — its
      // reported (full-fidelity) evaluation count is lower by exactly that.
      EXPECT_EQ(race_result.evaluations + race.stats().screen_rejected,
                full_result.evaluations);

      // Same accept/reject trajectory, different work profile.
      EXPECT_EQ(race.stats().accepted_moves, full.stats().accepted_moves);
      EXPECT_EQ(race.stats().rejected_infeasible,
                full.stats().rejected_infeasible);
      EXPECT_EQ(race.stats().resets, full.stats().resets);
      EXPECT_EQ(race.stats().archive_inserts_accepted,
                full.stats().archive_inserts_accepted);
      EXPECT_GT(race.stats().screened, 0u);
      EXPECT_EQ(full.stats().screened, 0u);
      // One screen per walked candidate: each is then either rejected by
      // the screen or promoted to one full evaluation.
      EXPECT_EQ(race.stats().screened,
                race.stats().screen_rejected + race.stats().promoted);
      // Full evaluations saved = candidates the screen rejected outright.
      EXPECT_EQ(race.stats().evaluations + race.stats().screen_rejected,
                full.stats().evaluations);
    }
  }
}

TEST(FidelityFingerprint, ForcedTierAndLadderChangeTheCacheKey) {
  const Scale scale = tiny_scale();
  const auto plan = [](const Scale& s) {
    return ExperimentPlan::of({"Random"}, s);
  };

  Scale screen = scale;
  screen.fidelity = "screen";
  EXPECT_NE(plan(scale).fingerprint(), plan(screen).fingerprint())
      << "an approximate campaign must never share the exact cache";

  // "race" produces byte-identical fronts to "full" by construction, but
  // its cells carry screen-tier counters a full run never computes, so it
  // keeps its own store: every replayed counter stays a function of
  // (plan, seed).
  Scale race = scale;
  race.fidelity = "race";
  EXPECT_NE(plan(scale).fingerprint(), plan(race).fingerprint());
}

TEST(FidelityFingerprint, ScaleRejectsTiersTheSweptScenariosLack) {
  Scale scale = tiny_scale();
  scale.fidelity = "warp";
  const auto plan = ExperimentPlan::of({"Random"}, scale);
  EXPECT_THROW(expt::validate_plan(plan), std::invalid_argument);
}

}  // namespace
}  // namespace aedbmls
