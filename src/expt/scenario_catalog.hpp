#pragma once

/// ScenarioCatalog — named workload presets for the AEDB tuning problem.
///
/// The paper's evaluation (§VI) sweeps the three Table II density levels
/// on one fixed arena; this catalog generalises "a density" into "a
/// scenario key" so experiments can sweep any workload the simulator
/// supports through the same `ExperimentPlan` API.  Built-in presets:
///
///   d100 / d200 / d300  — Table II: 500x500 m arena, random walk <= 2 m/s
///   d<N>                — any positive density on the Table II arena
///                         (resolved dynamically, e.g. `d150`)
///   static-grid         — no mobility: topologies are frozen at placement
///   highspeed           — vehicular-style random waypoint at 10..30 m/s
///   sparse-wide         — 50 devices/km^2 on a 1000x1000 m arena
///   urban-canyon        — strong correlated shadowing + steep path loss,
///                         pedestrian speeds
///   mixed-speed         — one crowd spanning pedestrian..vehicular speeds
///   payload-small/-large — 64 B / 1024 B broadcast payload sweep points
///   deadline-tight      — Table II d200 under a 0.5 s broadcast-time
///                         limit (safety-alert deadline); most of the
///                         parameter space is provably infeasible from the
///                         screen tier alone, so racing campaigns shine
///
/// A `ScenarioSpec` is pure data covering the full simulator surface —
/// arena/mobility, propagation (log-distance + correlated shadowing +
/// delay modelling), PHY, MAC and payload sizing; `scenario_config` /
/// `problem_config` derive the simulator and tuning-problem configurations
/// from it, so a new workload is one catalog entry away (ROADMAP: "new
/// scenario workloads ... now only need an AedbTuningProblem::Config").

#include <optional>
#include <string>
#include <vector>

#include "aedb/tuning_problem.hpp"

namespace aedbmls::expt {

struct Scale;

/// The ladder every catalog entry carries by default (tier 0 — the full
/// spec — is implicit):
///   1. "screen" — conservative: the simulated window is truncated to
///      bt_limit + 0.25 s past the broadcast; a truncated run is an exact
///      prefix of the full run, so a screen-detected bt violation proves
///      the candidate infeasible at full fidelity (no false rejections).
[[nodiscard]] std::vector<aedb::FidelityTier> default_fidelity_ladder();

struct ScenarioSpec {
  std::string key;          ///< catalog name, e.g. "d200", "sparse-wide"
  std::string description;  ///< one-line summary for --help style listings
  int devices_per_km2 = 100;
  double area_width_m = 500.0;
  double area_height_m = 500.0;
  sim::MobilityKind mobility = sim::MobilityKind::kRandomWalk;
  double min_speed_mps = 0.0;
  double max_speed_mps = 2.0;   ///< Table II: pedestrian random walk
  double mobility_epoch_s = 20.0;

  // Radio model.  Defaults mirror `sim::NetworkConfig` (the paper's ns-3
  // style setup); every field is forwarded verbatim by `scenario_config`,
  // so a spec fully determines the simulated physics — nothing is left to
  // silently inherit simulator defaults.
  sim::LogDistancePropagation::Config propagation{};  ///< path loss model
  double shadowing_sigma_db = 0.0;        ///< log-normal shadowing; 0 = off
  double shadowing_correlation_m = 25.0;  ///< shadow-field cell size
  bool model_propagation_delay = true;    ///< per-link signal flight time
  sim::PhyParams phy{};                   ///< radio thresholds and bitrate
  sim::CsmaBroadcastMac::Params mac{};    ///< contention parameters

  // Traffic sizing.
  std::uint32_t data_bytes = 256;   ///< broadcast payload (Table II: 256 B)
  std::uint32_t beacon_bytes = 50;  ///< hello-beacon frame size

  // Beaconing cadence.  Both feed `BeaconApp::Config` verbatim; defaults
  // reproduce the paper's Table II setup (1 Hz beacons, 10 ms of
  // desynchronising jitter) bit-for-bit.
  double beacon_period_s = 1.0;     ///< hello-beacon interval
  double beacon_jitter_s = 0.010;   ///< per-beacon random jitter window

  /// Feasibility deadline: mean broadcast time above this is a constraint
  /// violation (`AedbTuningProblem::Config::bt_limit_s`).  Part of the
  /// workload — a tighter deadline reshapes the feasible region — so it is
  /// hashed into the plan fingerprint like the physics fields above.
  double bt_limit_s = 2.0;

  /// Reduced-fidelity tiers layered on this spec (tier t is entry t-1;
  /// tier 0, the full spec, is implicit).  Hashed into the plan
  /// fingerprint, so editing the ladder invalidates cached CSVs.
  std::vector<aedb::FidelityTier> fidelity_tiers = default_fidelity_ladder();

  /// Node count on this arena (density x area).
  [[nodiscard]] std::size_t node_count() const;

  /// Tier index for a ladder name ("full" = 0); throws
  /// `std::invalid_argument` listing the ladder when unknown.
  [[nodiscard]] std::size_t fidelity_tier_index(const std::string& name) const;

  /// Base simulator scenario for evaluation network `network_index` of the
  /// ensemble identified by `seed`.
  [[nodiscard]] aedb::ScenarioConfig scenario_config(
      std::uint64_t seed, std::uint64_t network_index = 0) const;

  /// Tuning problem over this scenario under `scale` (shared network
  /// ensemble seed so every algorithm sees identical instances).
  [[nodiscard]] aedb::AedbTuningProblem::Config problem_config(
      const Scale& scale) const;
};

class ScenarioCatalog {
 public:
  /// The process-wide catalog (presets registered on first use).
  [[nodiscard]] static const ScenarioCatalog& instance();

  /// Spec for `key`; nullopt when the key names nothing.  `d<N>` keys with
  /// positive integer N resolve dynamically to Table II style scenarios.
  [[nodiscard]] std::optional<ScenarioSpec> find(const std::string& key) const;

  /// Spec for `key`; throws `std::invalid_argument` listing the registered
  /// keys when unknown.
  [[nodiscard]] ScenarioSpec resolve(const std::string& key) const;

  [[nodiscard]] bool contains(const std::string& key) const {
    return find(key).has_value();
  }

  /// Registered preset keys, registration order (dynamic d<N> not listed).
  [[nodiscard]] std::vector<std::string> names() const;

  /// All registered presets (for listings and catalog-wide tests).
  [[nodiscard]] const std::vector<ScenarioSpec>& specs() const {
    return specs_;
  }

 private:
  ScenarioCatalog();
  std::vector<ScenarioSpec> specs_;
};

/// The paper's §VI sweep: {"d100", "d200", "d300"}.
[[nodiscard]] const std::vector<std::string>& paper_scenarios();

/// Table II key for a density ("d100" for 100 devices/km^2).
[[nodiscard]] std::string density_key(int devices_per_km2);

}  // namespace aedbmls::expt
