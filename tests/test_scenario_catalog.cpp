/// ScenarioCatalog preset invariants: the Table II density keys plus the
/// non-paper regimes, the dynamic d<N> keys, and the derived simulator /
/// tuning-problem configurations.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string_view>
#include <vector>

#include "aedb/tuning_problem.hpp"
#include "common/cli.hpp"
#include "expt/scale.hpp"
#include "expt/scenario_catalog.hpp"

namespace aedbmls::expt {
namespace {

TEST(ScenarioCatalog, TableTwoPresetsMatchThePaper) {
  const auto& catalog = ScenarioCatalog::instance();
  const struct {
    const char* key;
    int density;
    std::size_t nodes;
  } expected[] = {{"d100", 100, 25}, {"d200", 200, 50}, {"d300", 300, 75}};
  for (const auto& row : expected) {
    const ScenarioSpec spec = catalog.resolve(row.key);
    EXPECT_EQ(spec.devices_per_km2, row.density);
    EXPECT_EQ(spec.area_width_m, 500.0);
    EXPECT_EQ(spec.area_height_m, 500.0);
    EXPECT_EQ(spec.mobility, sim::MobilityKind::kRandomWalk);
    EXPECT_EQ(spec.max_speed_mps, 2.0);
    EXPECT_EQ(spec.node_count(), row.nodes);  // 25/50/75 <=> 100/200/300
    EXPECT_EQ(spec.shadowing_sigma_db, 0.0);
  }
}

TEST(ScenarioCatalog, NonPaperRegimesExistWithTheRightPhysics) {
  const auto& catalog = ScenarioCatalog::instance();

  const ScenarioSpec frozen = catalog.resolve("static-grid");
  EXPECT_EQ(frozen.mobility, sim::MobilityKind::kStatic);
  EXPECT_EQ(frozen.max_speed_mps, 0.0);

  const ScenarioSpec vehicular = catalog.resolve("highspeed");
  EXPECT_EQ(vehicular.mobility, sim::MobilityKind::kRandomWaypoint);
  EXPECT_GE(vehicular.min_speed_mps, 10.0);
  EXPECT_GT(vehicular.max_speed_mps, vehicular.min_speed_mps);

  const ScenarioSpec sparse = catalog.resolve("sparse-wide");
  EXPECT_EQ(sparse.area_width_m, 1000.0);
  EXPECT_EQ(sparse.area_height_m, 1000.0);
  EXPECT_LT(sparse.devices_per_km2, 100);
  EXPECT_EQ(sparse.node_count(), 50u);  // 50 dev/km^2 on 1 km^2

  const ScenarioSpec canyon = catalog.resolve("urban-canyon");
  EXPECT_GT(canyon.propagation.exponent, 3.0);  // steeper than free Table II
  EXPECT_GT(canyon.shadowing_sigma_db, 0.0);
  EXPECT_GT(canyon.shadowing_correlation_m, 25.0);  // building-scale fades
  EXPECT_LE(canyon.max_speed_mps, 2.0);             // pedestrian
  EXPECT_EQ(canyon.mobility, sim::MobilityKind::kRandomWalk);

  const ScenarioSpec mixed = catalog.resolve("mixed-speed");
  EXPECT_EQ(mixed.mobility, sim::MobilityKind::kRandomWaypoint);
  EXPECT_LE(mixed.min_speed_mps, 1.0);   // pedestrians...
  EXPECT_GE(mixed.max_speed_mps, 15.0);  // ...and vehicles in one crowd

  const ScenarioSpec small = catalog.resolve("payload-small");
  const ScenarioSpec large = catalog.resolve("payload-large");
  EXPECT_LT(small.data_bytes, 256u);
  EXPECT_GT(large.data_bytes, 256u);
  EXPECT_LT(small.beacon_bytes, large.beacon_bytes);
  // Sweep points differ only in payload sizing, so indicator deltas are
  // attributable to the payload alone.
  EXPECT_EQ(small.devices_per_km2, large.devices_per_km2);
  EXPECT_EQ(small.mobility, large.mobility);
  EXPECT_EQ(small.shadowing_sigma_db, large.shadowing_sigma_db);

  const ScenarioSpec deadline = catalog.resolve("deadline-tight");
  EXPECT_EQ(deadline.devices_per_km2, 200);
  EXPECT_LT(deadline.bt_limit_s, 2.0);
  // The deadline must reach the tuning problem, and the default screen
  // window must span the whole ensemble rejection budget
  // (bt_limit x networks) so a single truncated network can prove
  // infeasibility on its own — the regime the racing bench leans on.
  Scale scale;
  scale.networks = 3;
  EXPECT_EQ(deadline.problem_config(scale).bt_limit_s, deadline.bt_limit_s);
  EXPECT_GT(deadline.fidelity_tiers.at(0).window_s,
            deadline.bt_limit_s * static_cast<double>(scale.networks));
}

TEST(ScenarioCatalog, SpecCoversTheFullSimulatorSurface) {
  // Every radio/traffic knob a spec declares must land in the derived
  // configuration — nothing may silently stay at a simulator default
  // (the shadowing_correlation_m regression: shadowed specs used to
  // inherit NetworkConfig's 25 m).
  ScenarioSpec spec = ScenarioCatalog::instance().resolve("d100");
  spec.propagation.exponent = 2.7;
  spec.propagation.reference_distance = 2.0;
  spec.propagation.reference_loss_db = 40.0;
  spec.shadowing_sigma_db = 5.0;
  spec.shadowing_correlation_m = 80.0;
  spec.model_propagation_delay = false;
  spec.phy.rx_sensitivity_dbm = -90.0;
  spec.phy.bitrate_bps = 2e6;
  spec.mac.cw = 16;
  spec.mac.max_retries = 7;
  spec.data_bytes = 512;
  spec.beacon_bytes = 75;
  spec.beacon_period_s = 0.5;
  spec.beacon_jitter_s = 0.025;

  const aedb::ScenarioConfig config = spec.scenario_config(3, 1);
  EXPECT_EQ(config.network.propagation.exponent, 2.7);
  EXPECT_EQ(config.network.propagation.reference_distance, 2.0);
  EXPECT_EQ(config.network.propagation.reference_loss_db, 40.0);
  EXPECT_EQ(config.network.shadowing_sigma_db, 5.0);
  EXPECT_EQ(config.network.shadowing_correlation_m, 80.0);
  EXPECT_FALSE(config.network.model_propagation_delay);
  EXPECT_EQ(config.network.phy.rx_sensitivity_dbm, -90.0);
  EXPECT_EQ(config.network.phy.bitrate_bps, 2e6);
  EXPECT_EQ(config.network.mac.cw, 16u);
  EXPECT_EQ(config.network.mac.max_retries, 7u);
  EXPECT_EQ(config.data_bytes, 512u);
  EXPECT_EQ(config.beacon_bytes, 75u);
  EXPECT_EQ(config.beacon_period.ns(), sim::seconds_d(0.5).ns());
  EXPECT_EQ(config.beacon_jitter.ns(), sim::seconds_d(0.025).ns());
}

TEST(ScenarioCatalog, BeaconCadenceDefaultsReproduceTableTwo) {
  // The beaconing knobs default to the hard-wired values every pre-knob
  // run used (1 s period, 10 ms jitter): the catalog presets — and hence
  // the pinned golden indicator CSVs — must be bit-for-bit unaffected by
  // the knobs' existence.
  const ScenarioSpec spec = ScenarioCatalog::instance().resolve("d200");
  EXPECT_EQ(spec.beacon_period_s, 1.0);
  EXPECT_EQ(spec.beacon_jitter_s, 0.010);
  const aedb::ScenarioConfig config = spec.scenario_config(1, 0);
  const aedb::ScenarioConfig defaults;
  EXPECT_EQ(config.beacon_period.ns(), defaults.beacon_period.ns());
  EXPECT_EQ(config.beacon_jitter.ns(), defaults.beacon_jitter.ns());
}

TEST(ScenarioCatalog, NewSpecFieldsMustBeTriagedHere) {
  // Fires when a field is added to (or resized in) ScenarioSpec.  When it
  // does: wire the new knob through scenario_config(), hash it into
  // ExperimentPlan::fingerprint() (a knob outside the fingerprint serves
  // stale cached indicators after a preset edit), then update this
  // expected size.  Gated to the CI platform so exotic ABIs don't trip
  // over padding differences.
#if defined(__x86_64__) && defined(__linux__)
  EXPECT_EQ(sizeof(ScenarioSpec), 320u)  // + fidelity ladder + bt_limit_s
      << "ScenarioSpec changed shape: triage the new/resized field for "
         "scenario_config() and ExperimentPlan::fingerprint()";
#else
  GTEST_SKIP() << "size guard only runs on the x86-64 Linux CI platform";
#endif
}

TEST(ScenarioCatalog, UrbanCanyonCorrelationReachesTheNetwork) {
  // The urban-canyon preset is the catalog's proof that the correlation
  // knob works end to end: its 50 m must survive into NetworkConfig, not
  // be replaced by the 25 m default.
  const ScenarioSpec canyon =
      ScenarioCatalog::instance().resolve("urban-canyon");
  const aedb::ScenarioConfig config = canyon.scenario_config(1, 0);
  EXPECT_EQ(config.network.shadowing_correlation_m,
            canyon.shadowing_correlation_m);
  EXPECT_NE(config.network.shadowing_correlation_m,
            sim::NetworkConfig{}.shadowing_correlation_m);
}

TEST(ScenarioCatalog, EveryPresetHasAKeyAndDescription) {
  for (const ScenarioSpec& spec : ScenarioCatalog::instance().specs()) {
    EXPECT_FALSE(spec.key.empty());
    EXPECT_FALSE(spec.description.empty());
    EXPECT_GT(spec.devices_per_km2, 0);
    EXPECT_GT(spec.node_count(), 0u);
  }
}

TEST(ScenarioCatalog, DynamicDensityKeysResolve) {
  const auto& catalog = ScenarioCatalog::instance();
  const ScenarioSpec spec = catalog.resolve("d150");
  EXPECT_EQ(spec.devices_per_km2, 150);
  EXPECT_EQ(spec.node_count(), 38u);  // round(150 * 0.25 km^2)
  EXPECT_EQ(density_key(150), "d150");

  EXPECT_FALSE(catalog.contains("d0"));
  EXPECT_FALSE(catalog.contains("d-5"));
  EXPECT_FALSE(catalog.contains("dxyz"));
  EXPECT_FALSE(catalog.contains("d15x"));
  EXPECT_FALSE(catalog.contains("d+300"));       // no sign
  EXPECT_FALSE(catalog.contains("d0100"));       // no leading zero
  EXPECT_FALSE(catalog.contains("d4294967397"));  // would wrap an int
}

TEST(ScenarioCatalog, UnknownKeyThrowsWithTheRegisteredList) {
  try {
    (void)ScenarioCatalog::instance().resolve("underwater");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("underwater"), std::string::npos);
    EXPECT_NE(message.find("d100"), std::string::npos);
    EXPECT_NE(message.find("static-grid"), std::string::npos);
  }
}

TEST(ScenarioCatalog, ProblemConfigWiresScaleAndScenarioThrough) {
  Scale scale;
  scale.networks = 4;
  scale.seed = 99;
  const ScenarioSpec spec = ScenarioCatalog::instance().resolve("sparse-wide");
  const aedb::AedbTuningProblem::Config config = spec.problem_config(scale);
  EXPECT_EQ(config.network_count, 4u);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_EQ(config.devices_per_km2, 50);
  EXPECT_EQ(config.scenario.network.area_width, 1000.0);

  // The tuning problem derives its node count from density x arena.
  const aedb::AedbTuningProblem problem(config);
  EXPECT_EQ(problem.config().scenario.network.node_count, 50u);
  EXPECT_EQ(problem.config().scenario.network.seed, 99u);
}

TEST(ScenarioCatalogDeathTest, ExampleTableRejectsTheCampaignSweep) {
  // --scenarios (the campaign benches' sweep) was once silently ignored by
  // the examples, which ran their fallback workload instead.  An example
  // declares only its own --scenario (quickstart's table here).
  constexpr std::string_view kQuickstartFlags[] = {
      "scenario", "seed",      "network",   "border",
      "margin",   "neighbors", "min-delay", "max-delay"};
  const std::vector<const char*> argv{"quickstart", "--scenarios=urban-canyon"};
  const CliArgs args(static_cast<int>(argv.size()), argv.data());
  EXPECT_EXIT(check_flags_or_exit(args, {kQuickstartFlags}),
              ::testing::ExitedWithCode(2),
              "unknown flag --scenarios; this program takes --scenario ");
}

TEST(ScenarioCatalog, ScenarioConfigIsDeterministic) {
  const ScenarioSpec spec = ScenarioCatalog::instance().resolve("highspeed");
  const aedb::ScenarioConfig a = spec.scenario_config(7, 2);
  const aedb::ScenarioConfig b = spec.scenario_config(7, 2);
  EXPECT_EQ(a.network.node_count, b.network.node_count);
  EXPECT_EQ(a.network.seed, b.network.seed);
  EXPECT_EQ(a.network.network_index, 2u);
  EXPECT_EQ(a.network.max_speed, 30.0);
}

}  // namespace
}  // namespace aedbmls::expt
