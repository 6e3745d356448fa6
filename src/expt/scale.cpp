#include "expt/scale.hpp"

#include <cstdlib>
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

/// `--flag`'s operand, digits only and at least `minimum`, or `fallback`
/// when absent.  Strict: a typo'd override that silently fell back to the
/// preset would run a different campaign (or make every iteration of a
/// seed sweep identical).
std::uint64_t u64_override(const CliArgs& args, const std::string& flag,
                           std::uint64_t fallback, std::uint64_t minimum) {
  if (!args.has(flag)) return fallback;
  const std::string text = args.get(flag);
  const auto value = parse_u64(text);
  if (!value || *value < minimum) {
    throw std::invalid_argument("--" + flag + " must be a " +
                                (minimum > 0 ? "positive" : "non-negative") +
                                " integer (got '" + text + "')");
  }
  return *value;
}

/// The environment variables that once spelled a setting, and the flag
/// that is now its one spelling.
constexpr struct {
  const char* variable;
  const char* flag;
} kRemovedVariables[] = {
    {"AEDB_SCALE", "--scale"},
    {"AEDB_SCENARIO", "--scenarios"},
    {"AEDB_FIDELITY", "--fidelity"},
    {"AEDB_FAULT_PLAN", "--fault-plan"},
};

}  // namespace

Scale resolve_scale(const CliArgs& args) {
  for (const auto& [variable, flag] : kRemovedVariables) {
    const char* value = std::getenv(variable);
    if (value != nullptr && *value != '\0') {
      throw std::invalid_argument(std::string(variable) +
                                  " is no longer read; pass " + flag + "=" +
                                  value);
    }
  }
  Scale scale = preset(args.get("scale", "smoke"));
  scale.networks = u64_override(args, "networks", scale.networks, 1);
  scale.runs = u64_override(args, "runs", scale.runs, 1);
  scale.evals = u64_override(args, "evals", scale.evals, 1);
  scale.sa_samples = u64_override(args, "sa-samples", scale.sa_samples, 1);
  scale.seed = u64_override(args, "seed", scale.seed, 0);
  if (args.has("scenarios")) {
    scale.scenarios = split_csv(args.get("scenarios"));
    if (scale.scenarios.empty()) {
      throw std::invalid_argument(
          "--scenarios is empty; expected e.g. --scenarios=d100,sparse-wide");
    }
  }
  // Fidelity mode: "full"/"race", or a ladder tier name (validated against
  // every swept scenario's ladder below — a typo'd tier silently running
  // the exact campaign would defeat the point of asking for a cheap one).
  scale.fidelity = args.get("fidelity", "full");
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
