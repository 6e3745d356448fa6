/// Global sensitivity analysis of the AEDB parameters (§III-B): FAST99
/// first-order and interaction indices of the four outputs — the machinery
/// behind Figure 2 and Table I, runnable standalone.
///
///   ./sensitivity_analysis [--scenario=d100] [--samples=65] [--networks=2]
///                          [--seed=1]
///
/// `--scenario` accepts any ScenarioCatalog key.  Any other argument, or a
/// malformed operand, exits 2.

#include <cstdio>
#include <stdexcept>

#include "aedb/tuning_problem.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "expt/scale.hpp"
#include "expt/scenario_catalog.hpp"
#include "moo/sa/fast99.hpp"
#include "par/thread_pool.hpp"

int main(int argc, char** argv) try {
  using namespace aedbmls;
  const CliArgs args(argc, argv);
  constexpr std::string_view kFlags[] = {"scenario", "samples", "networks",
                                         "seed"};
  check_flags_or_exit(args, {kFlags});

  const expt::ScenarioSpec spec =
      expt::ScenarioCatalog::instance().resolve(args.get("scenario", "d100"));
  expt::Scale scale;
  scale.networks = static_cast<std::size_t>(args.get_int("networks", 2));
  scale.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const aedb::AedbTuningProblem problem(spec.problem_config(scale));

  // The SA explores the wider §III-B domains, not the tuning domains.
  const auto& domain_array = aedb::AedbParams::sa_domain();
  const std::vector<std::pair<double, double>> domain(domain_array.begin(),
                                                      domain_array.end());

  moo::Fast99Config config;
  config.samples_per_curve =
      static_cast<std::size_t>(args.get_int("samples", 65));
  config.seed = scale.seed;
  const moo::Fast99 fast(config);

  // One simulation campaign yields all four outputs.
  const moo::Fast99::Model model = [&problem](const std::vector<double>& x) {
    const auto detail =
        problem.evaluate_detail(aedb::AedbParams::from_vector(x));
    return std::vector<double>{detail.mean_broadcast_time_s,
                               detail.mean_coverage, detail.mean_forwardings,
                               detail.mean_energy_dbm};
  };

  std::printf("FAST99 on %s (Ns=%zu per factor, %zu factors => %zu sims)\n\n",
              problem.name().c_str(), config.samples_per_curve, domain.size(),
              config.samples_per_curve * domain.size());
  par::ThreadPool pool;
  const moo::Fast99Result result = fast.analyze(domain, model, 4, &pool);

  const char* outputs[] = {"broadcast_time", "coverage", "forwardings",
                           "energy"};
  for (std::size_t out = 0; out < 4; ++out) {
    const moo::Fast99Indices& indices = result.outputs[out];
    TextTable table;
    table.set_header({"parameter", "main effect", "interactions", "direction"});
    for (std::size_t f = 0; f < domain.size(); ++f) {
      table.add_row({aedb::AedbParams::names()[f],
                     format_double(indices.first_order[f], 3),
                     format_double(indices.interaction[f], 3),
                     indices.direction[f] > 0.1
                         ? "increasing"
                         : (indices.direction[f] < -0.1 ? "decreasing"
                                                        : "flat")});
    }
    std::printf("influence on %s:\n%s\n", outputs[out],
                table.to_string().c_str());
  }
  std::printf("total model evaluations: %zu\n", result.evaluations);
  return 0;
} catch (const std::invalid_argument& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 2;
}
