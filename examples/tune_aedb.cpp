/// Tune the AEDB protocol with AEDB-MLS on a chosen catalog scenario — the
/// paper's headline use case, scaled for a laptop by default.
///
///   ./tune_aedb [--scenario=d100] [--populations=2] [--threads=4]
///               [--evals=40] [--reset=20] [--alpha=0.2] [--networks=5]
///               [--seed=1]
///
/// `--scenario` accepts any ScenarioCatalog key.  Paper-scale run:
/// --populations=8 --threads=12 --evals=250 --networks=10.  Any other
/// argument, or a malformed operand, exits 2.

#include <cstdio>
#include <stdexcept>

#include "aedb/tuning_problem.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/mls.hpp"
#include "expt/scale.hpp"
#include "expt/scenario_catalog.hpp"
#include "moo/analysis/knee.hpp"

int main(int argc, char** argv) try {
  using namespace aedbmls;
  const CliArgs args(argc, argv);
  constexpr std::string_view kFlags[] = {"scenario", "populations", "threads",
                                         "evals",    "reset",       "alpha",
                                         "networks", "seed"};
  check_flags_or_exit(args, {kFlags});

  const expt::ScenarioSpec spec =
      expt::ScenarioCatalog::instance().resolve(args.get("scenario", "d100"));
  expt::Scale scale;
  scale.networks = static_cast<std::size_t>(args.get_int("networks", 5));
  scale.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const aedb::AedbTuningProblem problem(spec.problem_config(scale));

  core::MlsConfig config;
  config.populations = static_cast<std::size_t>(args.get_int("populations", 2));
  config.threads_per_population =
      static_cast<std::size_t>(args.get_int("threads", 4));
  config.evaluations_per_thread =
      static_cast<std::size_t>(args.get_int("evals", 40));
  config.reset_period = static_cast<std::size_t>(args.get_int("reset", 20));
  config.alpha = args.get_double("alpha", 0.2);
  config.criteria = core::aedb_criteria();  // sensitivity-guided operators

  std::printf("AEDB-MLS tuning %s: %zu populations x %zu threads x %zu evals "
              "(alpha=%.2f, reset=%zu)\n",
              problem.name().c_str(), config.populations,
              config.threads_per_population, config.evaluations_per_thread,
              config.alpha, config.reset_period);

  core::AedbMls mls(config);
  const moo::AlgorithmResult result = mls.run(problem, scale.seed);

  std::printf("\n%zu evaluations in %.1f s (%.1f evals/s), %zu front points\n",
              result.evaluations, result.wall_seconds,
              static_cast<double>(result.evaluations) /
                  std::max(result.wall_seconds, 1e-9),
              result.front.size());
  const core::AedbMls::Stats& stats = mls.stats();
  std::printf("accepted moves: %llu, infeasible rejections: %llu, resets: %llu\n\n",
              static_cast<unsigned long long>(stats.accepted_moves),
              static_cast<unsigned long long>(stats.rejected_infeasible),
              static_cast<unsigned long long>(stats.resets));

  TextTable table;
  table.set_header({"energy_dBm", "coverage", "forwardings", "min_delay",
                    "max_delay", "border", "margin", "neighbors"});
  for (const moo::Solution& s : result.front) {
    const aedb::AedbParams params = aedb::AedbParams::from_vector(s.x);
    table.add_row({format_double(s.objectives[0], 2),
                   format_double(-s.objectives[1], 2),
                   format_double(s.objectives[2], 2),
                   format_double(params.min_delay_s, 3),
                   format_double(params.max_delay_s, 3),
                   format_double(params.border_threshold_dbm, 1),
                   format_double(params.margin_threshold_db, 2),
                   format_double(params.neighbors_threshold, 1)});
  }
  std::printf("%s", table.to_string().c_str());

  if (!result.front.empty()) {
    const std::size_t pick = moo::knee_point(result.front);
    const aedb::AedbParams best =
        aedb::AedbParams::from_vector(result.front[pick].x);
    std::printf("\nrecommended configuration (knee of the front):\n  %s\n"
                "  -> energy %.2f dBm-sum, coverage %.2f, forwardings %.2f\n",
                best.to_string().c_str(), result.front[pick].objectives[0],
                -result.front[pick].objectives[1],
                result.front[pick].objectives[2]);
  }
  return 0;
} catch (const std::invalid_argument& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 2;
}
