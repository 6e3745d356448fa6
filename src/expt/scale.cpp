#include "expt/scale.hpp"

#include <sstream>
#include <stdexcept>

#include "expt/scenario_catalog.hpp"

namespace aedbmls::expt {
namespace {

Scale preset(const std::string& name) {
  Scale scale;
  scale.name = name;
  if (name == "paper") {
    scale.networks = 10;
    scale.runs = 30;
    scale.evals = 24000;
    scale.mls_populations = 8;
    scale.mls_threads = 12;
    scale.sa_samples = 1001;
  } else if (name == "small") {
    scale.networks = 5;
    scale.runs = 10;
    scale.evals = 600;
    scale.mls_populations = 4;
    scale.mls_threads = 3;
    scale.sa_samples = 129;
  } else if (name != "smoke") {
    std::ostringstream os;
    os << "unknown scale '" << name << "'; valid scales:";
    for (const std::string& valid : scale_names()) os << ' ' << valid;
    throw std::invalid_argument(os.str());
  }
  return scale;
}

/// `--densities=100,200` compatibility spelling: each entry becomes a
/// Table II scenario key ("100" -> "d100").  Malformed entries (negative,
/// non-numeric, overflowing) are rejected by the catalog's strict d<N>
/// validation in the resolve loop below, which lists the valid options.
std::vector<std::string> densities_to_scenarios(const std::string& csv) {
  std::vector<std::string> out;
  for (const std::string& token : split_csv(csv)) out.push_back("d" + token);
  if (out.empty()) {
    throw std::invalid_argument(
        "--densities is empty; expected e.g. --densities=100,200");
  }
  return out;
}

std::size_t positive_override(const CliArgs& args, const std::string& flag,
                              std::size_t fallback) {
  if (!args.has(flag)) return fallback;
  const std::string text = args.get(flag);
  const std::optional<long> value = parse_positive_long(text);
  if (!value.has_value()) {
    throw std::invalid_argument("--" + flag +
                                " must be a positive integer (got '" + text +
                                "')");
  }
  return static_cast<std::size_t>(*value);
}

/// Strict --seed parsing: a typo'd seed that silently fell back to the
/// preset would make every iteration of a seed sweep identical.
std::uint64_t seed_override(const CliArgs& args, std::uint64_t fallback) {
  if (!args.has("seed")) return fallback;
  const std::string text = args.get("seed");
  if (const auto value = parse_u64(text)) return *value;
  throw std::invalid_argument("--seed must be a non-negative integer (got '" +
                              text + "')");
}

}  // namespace

Scale resolve_scale(const CliArgs& args) {
  const std::string name = args.get("scale", env_or("AEDB_SCALE", "smoke"));
  Scale scale = preset(name);
  scale.networks = positive_override(args, "networks", scale.networks);
  scale.runs = positive_override(args, "runs", scale.runs);
  scale.evals = positive_override(args, "evals", scale.evals);
  scale.sa_samples = positive_override(args, "sa-samples", scale.sa_samples);
  scale.seed = seed_override(args, scale.seed);

  // Scenario selection: --scenarios=a,b / --scenario=a, or the --densities
  // compatibility spelling, or AEDB_SCENARIO.  The flag spellings name the
  // same sweep, so mixing them would silently drop one — reject instead of
  // running a different workload than the user asked for.
  if ((args.has("scenarios") || args.has("scenario")) &&
      args.has("densities")) {
    throw std::invalid_argument(
        "--scenario(s) and --densities both given; they select the same "
        "sweep (--densities=100,200 is shorthand for --scenarios=d100,d200), "
        "pass exactly one");
  }
  if (args.has("scenarios") && args.has("scenario")) {
    throw std::invalid_argument(
        "--scenario and --scenarios both given; they are spellings of the "
        "same sweep, pass exactly one");
  }
  if (args.has("scenarios") || args.has("scenario")) {
    scale.scenarios = split_csv(
        args.has("scenarios") ? args.get("scenarios") : args.get("scenario"));
    if (scale.scenarios.empty()) {
      throw std::invalid_argument(
          "--scenario(s) is empty; expected e.g. --scenarios=d100,sparse-wide");
    }
  } else if (args.has("densities")) {
    scale.scenarios = densities_to_scenarios(args.get("densities"));
  } else if (const std::string env = env_or("AEDB_SCENARIO", "");
             !env.empty()) {
    scale.scenarios = split_csv(env);
    if (scale.scenarios.empty()) {
      throw std::invalid_argument(
          "AEDB_SCENARIO is set but names no scenarios (got '" + env + "')");
    }
  }
  // Fidelity mode: "full"/"race", or a ladder tier name (validated against
  // every swept scenario's ladder below — a typo'd tier silently running
  // the exact campaign would defeat the point of asking for a cheap one).
  scale.fidelity = args.get("fidelity", env_or("AEDB_FIDELITY", "full"));
  if (scale.fidelity.empty()) {
    throw std::invalid_argument(
        "--fidelity is empty; expected full, race, or a ladder tier name "
        "(e.g. screen)");
  }
  // Every key must resolve (throws with the catalog listing otherwise) and
  // be unique — a duplicated key would double-count records downstream.
  for (std::size_t i = 0; i < scale.scenarios.size(); ++i) {
    const ScenarioSpec spec =
        ScenarioCatalog::instance().resolve(scale.scenarios[i]);
    if (scale.fidelity != "full" && scale.fidelity != "race") {
      (void)spec.fidelity_tier_index(scale.fidelity);  // throws when unknown
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (scale.scenarios[i] == scale.scenarios[j]) {
        throw std::invalid_argument("duplicate scenario '" +
                                    scale.scenarios[i] + "' in the sweep");
      }
    }
  }
  return scale;
}

const std::vector<std::string>& scale_names() {
  static const std::vector<std::string> names{"smoke", "small", "paper"};
  return names;
}

}  // namespace aedbmls::expt
