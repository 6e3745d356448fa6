#include "expt/scenario_catalog.hpp"

#include <sstream>
#include <stdexcept>

#include "common/cli.hpp"
#include "expt/scale.hpp"

namespace aedbmls::expt {

std::vector<aedb::FidelityTier> default_fidelity_ladder() {
  // The screen window is the bt constraint (2 s) plus a small margin: a
  // feasible candidate's broadcast has, by definition, finished inside it,
  // so the screen loses nothing — while hopeless candidates are rejected
  // after simulating ~2.25 s instead of 10 s per network (often on the
  // first network, thanks to the conservative early exit).
  aedb::FidelityTier screen;
  screen.name = "screen";
  screen.window_s = 2.25;
  screen.conservative = true;
  return {screen};
}

std::size_t ScenarioSpec::fidelity_tier_index(const std::string& name) const {
  if (name == "full") return 0;
  for (std::size_t t = 0; t < fidelity_tiers.size(); ++t) {
    if (fidelity_tiers[t].name == name) return t + 1;
  }
  std::ostringstream os;
  os << "unknown fidelity tier '" << name << "' for scenario '" << key
     << "'; ladder: full";
  for (const aedb::FidelityTier& tier : fidelity_tiers) os << ' ' << tier.name;
  throw std::invalid_argument(os.str());
}

std::size_t ScenarioSpec::node_count() const {
  return aedb::nodes_for_density(devices_per_km2, area_width_m, area_height_m);
}

aedb::ScenarioConfig ScenarioSpec::scenario_config(
    std::uint64_t seed, std::uint64_t network_index) const {
  aedb::ScenarioConfig config;
  config.network.node_count = node_count();
  config.network.area_width = area_width_m;
  config.network.area_height = area_height_m;
  config.network.mobility = mobility;
  config.network.min_speed = min_speed_mps;
  config.network.max_speed = max_speed_mps;
  config.network.mobility_epoch = sim::seconds_d(mobility_epoch_s);
  config.network.propagation = propagation;
  config.network.shadowing_sigma_db = shadowing_sigma_db;
  config.network.shadowing_correlation_m = shadowing_correlation_m;
  config.network.model_propagation_delay = model_propagation_delay;
  config.network.phy = phy;
  config.network.mac = mac;
  config.network.seed = seed;
  config.network.network_index = network_index;
  config.data_bytes = data_bytes;
  config.beacon_bytes = beacon_bytes;
  config.beacon_period = sim::seconds_d(beacon_period_s);
  config.beacon_jitter = sim::seconds_d(beacon_jitter_s);
  return config;
}

aedb::AedbTuningProblem::Config ScenarioSpec::problem_config(
    const Scale& scale) const {
  aedb::AedbTuningProblem::Config config;
  config.devices_per_km2 = devices_per_km2;
  config.network_count = scale.networks;
  config.seed = scale.seed;
  config.scenario = scenario_config(scale.seed);
  config.bt_limit_s = bt_limit_s;
  config.tiers = fidelity_tiers;
  // "full" and "race" both evaluate the exact problem ("race" changes the
  // optimiser's search policy, not the evaluation); a tier name rebases the
  // whole campaign onto that tier — an explicitly approximate mode.
  if (scale.fidelity != "full" && scale.fidelity != "race") {
    config.forced_tier = fidelity_tier_index(scale.fidelity);
  }
  return config;
}

namespace {

ScenarioSpec table2_spec(int devices_per_km2) {
  ScenarioSpec spec;
  spec.key = density_key(devices_per_km2);
  spec.description = "Table II: " + std::to_string(devices_per_km2) +
                     " devices/km^2, 500x500 m, random walk <= 2 m/s";
  spec.devices_per_km2 = devices_per_km2;
  return spec;
}

}  // namespace

ScenarioCatalog::ScenarioCatalog() {
  for (const int density : {100, 200, 300}) {
    specs_.push_back(table2_spec(density));
  }
  {
    ScenarioSpec spec;
    spec.key = "static-grid";
    spec.description =
        "no mobility: Table II placement at 200 devices/km^2, frozen";
    spec.devices_per_km2 = 200;
    spec.mobility = sim::MobilityKind::kStatic;
    spec.min_speed_mps = 0.0;
    spec.max_speed_mps = 0.0;
    specs_.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.key = "highspeed";
    spec.description =
        "vehicular: random waypoint at 10..30 m/s, 200 devices/km^2";
    spec.devices_per_km2 = 200;
    spec.mobility = sim::MobilityKind::kRandomWaypoint;
    spec.min_speed_mps = 10.0;
    spec.max_speed_mps = 30.0;
    spec.mobility_epoch_s = 5.0;  // direction changes far more often
    specs_.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.key = "sparse-wide";
    spec.description =
        "wide-area: 50 devices/km^2 on a 1000x1000 m arena, random walk";
    spec.devices_per_km2 = 50;
    spec.area_width_m = 1000.0;
    spec.area_height_m = 1000.0;
    specs_.push_back(spec);
  }
  {
    // Vehicular/urban radio regime (Toutouh & Alba's VANET follow-up
    // work): street canyons steepen path loss and add strong shadowing
    // whose fades are correlated over building-scale distances.
    ScenarioSpec spec;
    spec.key = "urban-canyon";
    spec.description =
        "urban canyon: path loss exponent 3.5, 8 dB shadowing correlated "
        "over 50 m, pedestrian walk";
    spec.devices_per_km2 = 200;
    spec.min_speed_mps = 0.3;
    spec.max_speed_mps = 1.5;
    spec.propagation.exponent = 3.5;
    spec.shadowing_sigma_db = 8.0;
    spec.shadowing_correlation_m = 50.0;
    specs_.push_back(spec);
  }
  {
    // One crowd spanning pedestrians and vehicles: every waypoint leg
    // draws its speed uniformly from the full range, so slow and fast
    // nodes mix in a single topology.
    ScenarioSpec spec;
    spec.key = "mixed-speed";
    spec.description =
        "mixed crowd: random waypoint at 0.5..20 m/s (pedestrian to "
        "vehicular in one topology)";
    spec.devices_per_km2 = 200;
    spec.mobility = sim::MobilityKind::kRandomWaypoint;
    spec.min_speed_mps = 0.5;
    spec.max_speed_mps = 20.0;
    specs_.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.key = "payload-small";
    spec.description =
        "payload sweep: 64 B broadcasts, 25 B beacons (Table II d200 "
        "otherwise)";
    spec.devices_per_km2 = 200;
    spec.data_bytes = 64;
    spec.beacon_bytes = 25;
    specs_.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.key = "payload-large";
    spec.description =
        "payload sweep: 1024 B broadcasts, 100 B beacons (Table II d200 "
        "otherwise)";
    spec.devices_per_km2 = 200;
    spec.data_bytes = 1024;
    spec.beacon_bytes = 100;
    specs_.push_back(spec);
  }
  {
    // The default screen window (2.25 s past the broadcast) spans the
    // whole 0.5 s x networks rejection budget here, so one truncated
    // network often proves a candidate infeasible on its own — the regime
    // where racing campaigns earn their keep.
    ScenarioSpec spec;
    spec.key = "deadline-tight";
    spec.description =
        "safety-alert deadline: Table II d200 under a 0.5 s broadcast-time "
        "limit";
    spec.devices_per_km2 = 200;
    spec.bt_limit_s = 0.5;
    specs_.push_back(spec);
  }
}

const ScenarioCatalog& ScenarioCatalog::instance() {
  static const ScenarioCatalog catalog;
  return catalog;
}

std::optional<ScenarioSpec> ScenarioCatalog::find(
    const std::string& key) const {
  for (const ScenarioSpec& spec : specs_) {
    if (spec.key == key) return spec;
  }
  // Dynamic Table II style keys: d<N> for any positive integer density.
  // Strictly plain digits (no sign/whitespace/leading zero, <= 7 digits so
  // the value cannot overflow an int) — every accepted key is canonical,
  // i.e. equal to density_key() of its density.
  if (key.size() > 1 && key.size() <= 8 && key.front() == 'd' &&
      key[1] != '0') {
    if (const auto density = parse_u64(std::string_view(key).substr(1))) {
      return table2_spec(static_cast<int>(*density));
    }
  }
  return std::nullopt;
}

ScenarioSpec ScenarioCatalog::resolve(const std::string& key) const {
  if (auto spec = find(key)) return *spec;
  std::ostringstream os;
  os << "unknown scenario '" << key << "'; registered scenarios:";
  for (const ScenarioSpec& spec : specs_) os << ' ' << spec.key;
  os << " (plus d<N> for any positive density N)";
  throw std::invalid_argument(os.str());
}

std::vector<std::string> ScenarioCatalog::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const ScenarioSpec& spec : specs_) out.push_back(spec.key);
  return out;
}

std::string density_key(int devices_per_km2) {
  return "d" + std::to_string(devices_per_km2);
}

}  // namespace aedbmls::expt
