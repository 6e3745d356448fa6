/// E12 (extension, beyond the paper) — robustness of tuned configurations:
/// the paper tunes AEDB under random-walk mobility and clean log-distance
/// propagation; a deployed protocol faces other regimes.  This bench tunes
/// at the current scale, picks the knee configuration of the front, and
/// re-evaluates it under: static nodes, random-waypoint, Gauss-Markov,
/// and log-normal shadowing (sigma 4 / 8 dB).

#include <cstdio>

#include "aedb/tuning_problem.hpp"
#include "common/table.hpp"
#include "core/mls.hpp"
#include "experiment/bench_cli.hpp"
#include "expt/experiment.hpp"
#include "moo/analysis/knee.hpp"

namespace {

using namespace aedbmls;

struct Condition {
  const char* name;
  sim::MobilityKind mobility;
  double shadowing_sigma;
};

constexpr Condition kConditions[] = {
    {"random walk (tuning regime)", sim::MobilityKind::kRandomWalk, 0.0},
    {"static nodes", sim::MobilityKind::kStatic, 0.0},
    {"random waypoint", sim::MobilityKind::kRandomWaypoint, 0.0},
    {"gauss-markov", sim::MobilityKind::kGaussMarkov, 0.0},
    {"shadowing sigma=4 dB", sim::MobilityKind::kRandomWalk, 4.0},
    {"shadowing sigma=8 dB", sim::MobilityKind::kRandomWalk, 8.0},
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const expt::Scale scale = expt::resolve_scale_or_exit(args);
  expt::print_header("bench_robustness",
                     "extension E12: tuned configuration under other regimes",
                     scale);

  const expt::ScenarioSpec spec =
      expt::ScenarioCatalog::instance().resolve(scale.scenarios.front());
  const aedb::AedbTuningProblem problem(spec.problem_config(scale));

  // Tune once at the current scale, take the knee configuration.
  std::printf("[run] tuning with AEDB-MLS on %s...\n", problem.name().c_str());
  std::fflush(stdout);
  auto mls = expt::AlgorithmRegistry::instance().create("AEDB-MLS", scale);
  const moo::AlgorithmResult tuned = mls->run(problem, scale.seed);
  if (tuned.front.empty()) {
    std::printf("tuning produced no feasible front; aborting\n");
    return 1;
  }
  const aedb::AedbParams knee = aedb::AedbParams::from_vector(
      tuned.front[moo::knee_point(tuned.front)].x);
  std::printf("knee configuration: %s\n\n", knee.to_string().c_str());

  TextTable table;
  table.set_header({"condition", "coverage", "forwardings", "energy_dBm",
                    "bt [s]", "feasible"});
  for (const Condition& condition : kConditions) {
    double coverage = 0.0;
    double forwardings = 0.0;
    double energy = 0.0;
    double bt = 0.0;
    for (std::size_t net = 0; net < scale.networks; ++net) {
      aedb::ScenarioConfig scenario = spec.scenario_config(scale.seed, net);
      scenario.network.mobility = condition.mobility;
      scenario.network.shadowing_sigma_db = condition.shadowing_sigma;
      const auto stats = aedb::run_scenario(scenario, knee).stats;
      coverage += static_cast<double>(stats.coverage);
      forwardings += static_cast<double>(stats.forwardings);
      energy += stats.energy_dbm_sum;
      bt += stats.broadcast_time_s;
    }
    const double n = static_cast<double>(scale.networks);
    table.add_row({condition.name, format_double(coverage / n, 2),
                   format_double(forwardings / n, 2),
                   format_double(energy / n, 2), format_double(bt / n, 3),
                   bt / n < 2.0 ? "yes" : "NO"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("reading: the knee configuration must stay feasible (bt < 2 s)\n"
              "across regimes.  Static/smoother mobility typically raises\n"
              "coverage (neighbor tables stay accurate).  Shadowing fades\n"
              "links both ways: fade-ups create long stochastic links that\n"
              "raise coverage, but at a real cost — energy and broadcast\n"
              "time climb because the beacon-based power estimates the\n"
              "protocol adapts with no longer match the channel (exactly the\n"
              "uncertainty the margin_threshold parameter exists to absorb).\n");
  return 0;
}
