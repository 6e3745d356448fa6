/// Pooling-key drift guard: `sim::equivalent()` is the key of
/// `aedb::ScenarioWorkspace`'s context pool, and decides when a pooled
/// simulation graph may be re-armed via `Network::restart()` instead of
/// rebuilt.  A `NetworkConfig` field that changes the simulated physics but
/// is missing from `equivalent()` makes the pool serve stale networks —
/// silently, since everything still runs.  This suite mutates
/// every simulation-relevant field one at a time, over every catalog
/// preset, and asserts the key distinguishes each mutation; a size check
/// forces whoever adds a `NetworkConfig` field to decide where it belongs.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "expt/scenario_catalog.hpp"
#include "sim/net/network.hpp"

namespace aedbmls::sim {
namespace {

struct Mutation {
  const char* field;
  std::function<void(NetworkConfig&)> apply;
};

/// One entry per simulation-relevant `NetworkConfig` field, each changing
/// only that field (relative to any base, so every catalog preset can be
/// used as the baseline).
const std::vector<Mutation>& simulation_relevant_mutations() {
  static const std::vector<Mutation> mutations = {
      {"node_count", [](NetworkConfig& c) { c.node_count += 1; }},
      {"area_width", [](NetworkConfig& c) { c.area_width += 10.0; }},
      {"area_height", [](NetworkConfig& c) { c.area_height += 10.0; }},
      {"min_speed", [](NetworkConfig& c) { c.min_speed += 0.25; }},
      {"max_speed", [](NetworkConfig& c) { c.max_speed += 0.25; }},
      {"mobility_epoch",
       [](NetworkConfig& c) { c.mobility_epoch += seconds(1); }},
      {"mobility",
       [](NetworkConfig& c) {
         c.mobility = c.mobility == MobilityKind::kGaussMarkov
                          ? MobilityKind::kRandomWaypoint
                          : MobilityKind::kGaussMarkov;
       }},
      {"propagation.exponent",
       [](NetworkConfig& c) { c.propagation.exponent += 0.5; }},
      {"propagation.reference_distance",
       [](NetworkConfig& c) { c.propagation.reference_distance += 1.0; }},
      {"propagation.reference_loss_db",
       [](NetworkConfig& c) { c.propagation.reference_loss_db += 3.0; }},
      {"shadowing_sigma_db",
       [](NetworkConfig& c) { c.shadowing_sigma_db += 2.0; }},
      {"shadowing_correlation_m",
       [](NetworkConfig& c) { c.shadowing_correlation_m += 5.0; }},
      {"model_propagation_delay",
       [](NetworkConfig& c) {
         c.model_propagation_delay = !c.model_propagation_delay;
       }},
      {"phy.rx_sensitivity_dbm",
       [](NetworkConfig& c) { c.phy.rx_sensitivity_dbm += 1.0; }},
      {"phy.cs_threshold_dbm",
       [](NetworkConfig& c) { c.phy.cs_threshold_dbm += 1.0; }},
      {"phy.sinr_threshold_db",
       [](NetworkConfig& c) { c.phy.sinr_threshold_db += 1.0; }},
      {"phy.noise_floor_dbm",
       [](NetworkConfig& c) { c.phy.noise_floor_dbm += 1.0; }},
      {"phy.interference_floor_dbm",
       [](NetworkConfig& c) { c.phy.interference_floor_dbm += 1.0; }},
      {"phy.bitrate_bps", [](NetworkConfig& c) { c.phy.bitrate_bps *= 2.0; }},
      {"phy.preamble",
       [](NetworkConfig& c) { c.phy.preamble += microseconds(8); }},
      {"phy.max_tx_power_dbm",
       [](NetworkConfig& c) { c.phy.max_tx_power_dbm += 1.0; }},
      {"phy.min_tx_power_dbm",
       [](NetworkConfig& c) { c.phy.min_tx_power_dbm += 1.0; }},
      {"mac.difs", [](NetworkConfig& c) { c.mac.difs += microseconds(10); }},
      {"mac.slot", [](NetworkConfig& c) { c.mac.slot += microseconds(10); }},
      {"mac.cw", [](NetworkConfig& c) { c.mac.cw += 1; }},
      {"mac.max_retries", [](NetworkConfig& c) { c.mac.max_retries += 1; }},
      {"seed", [](NetworkConfig& c) { c.seed += 1; }},
      {"network_index", [](NetworkConfig& c) { c.network_index += 1; }},
  };
  return mutations;
}

TEST(NetworkEquivalence, DistinguishesEveryFieldOnEveryCatalogPreset) {
  const auto& catalog = expt::ScenarioCatalog::instance();
  std::vector<expt::ScenarioSpec> specs = catalog.specs();
  specs.push_back(catalog.resolve("d150"));  // the dynamic d<N> path too
  for (const expt::ScenarioSpec& spec : specs) {
    const NetworkConfig base = spec.scenario_config(20130520, 1).network;
    ASSERT_TRUE(equivalent(base, base)) << spec.key;
    for (const Mutation& mutation : simulation_relevant_mutations()) {
      NetworkConfig mutated = base;
      mutation.apply(mutated);
      EXPECT_FALSE(equivalent(base, mutated))
          << "equivalent() does not distinguish '" << mutation.field
          << "' on preset '" << spec.key
          << "' — pooled contexts would serve stale networks for this knob";
      EXPECT_FALSE(equivalent(mutated, base))
          << mutation.field << " on '" << spec.key << "' (symmetry)";
    }
  }
}

TEST(NetworkEquivalence, NewFieldsMustBeTriagedHere) {
  // Fires when a field is added to (or resized in) NetworkConfig.  When it
  // does: decide whether the new field changes the simulated physics,
  // extend sim::equivalent() and simulation_relevant_mutations() to match,
  // then update this expected size.  Gated to the CI platform so exotic
  // ABIs don't trip over padding differences.
#if defined(__x86_64__) && defined(__linux__)
  EXPECT_EQ(sizeof(NetworkConfig), 216u)
      << "NetworkConfig changed shape: triage the new/resized field for "
         "sim::equivalent() and the mutation list in this file";
#else
  GTEST_SKIP() << "size guard only runs on the x86-64 Linux CI platform";
#endif
}

}  // namespace
}  // namespace aedbmls::sim
