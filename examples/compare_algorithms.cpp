/// Head-to-head of the three algorithms of the paper (plus random search as
/// a floor) on one AEDB tuning scenario, with normalised quality indicators
/// against the combined reference front — §VI's comparison in miniature,
/// driven entirely through the `expt` layer (AlgorithmRegistry +
/// ScenarioCatalog).
///
///   ./compare_algorithms [--scenario=d100] [--evals=120] [--networks=3]
///                        [--seed=3] [--algorithms=NSGAII,CellDE,...]
///
/// Any catalog scenario works: --scenario=sparse-wide, highspeed,
/// static-grid, d250, ...  Any other argument, a malformed operand or an
/// unknown algorithm exits 2.

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "aedb/tuning_problem.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "expt/algorithm_registry.hpp"
#include "expt/scale.hpp"
#include "expt/scenario_catalog.hpp"
#include "moo/core/front_io.hpp"
#include "moo/core/normalization.hpp"
#include "moo/indicators/hypervolume.hpp"
#include "moo/indicators/igd.hpp"
#include "moo/indicators/spread.hpp"
#include "par/thread_pool.hpp"

int main(int argc, char** argv) try {
  using namespace aedbmls;
  const CliArgs args(argc, argv);
  constexpr std::string_view kFlags[] = {"scenario", "evals", "networks",
                                         "seed", "algorithms"};
  check_flags_or_exit(args, {kFlags});

  expt::Scale scale;
  scale.evals = static_cast<std::size_t>(args.get_int("evals", 120));
  scale.networks = static_cast<std::size_t>(args.get_int("networks", 3));
  scale.seed = static_cast<std::uint64_t>(args.get_int("seed", 3));
  scale.mls_populations = 2;
  scale.mls_threads = 2;

  const expt::ScenarioSpec spec =
      expt::ScenarioCatalog::instance().resolve(args.get("scenario", "d100"));
  std::vector<std::unique_ptr<moo::Algorithm>> algorithms;
  par::ThreadPool pool;  // parallel evaluation for the generational EAs
  const moo::EvaluationEngine engine(&pool);
  const std::vector<std::string> names =
      split_csv(args.get("algorithms", "NSGAII,CellDE,AEDB-MLS,Random"));
  if (names.empty()) {
    throw std::invalid_argument(
        "--algorithms is empty; expected e.g. --algorithms=NSGAII,CellDE");
  }
  // An unknown algorithm throws std::invalid_argument listing the
  // registered options.
  for (const std::string& name : names) {
    algorithms.push_back(
        expt::AlgorithmRegistry::instance().create(name, scale, &engine));
  }
  const aedb::AedbTuningProblem problem(spec.problem_config(scale));

  std::printf("comparing on %s (%s), ~%zu evaluations each\n\n",
              problem.name().c_str(), spec.description.c_str(), scale.evals);
  std::vector<moo::AlgorithmResult> results;
  std::vector<std::vector<moo::Solution>> fronts;
  for (auto& algorithm : algorithms) {
    results.push_back(algorithm->run(problem, scale.seed));
    fronts.push_back(results.back().front);
    std::printf("  %-12s %5zu evals  %6.1f s  %3zu front points\n",
                algorithm->name().c_str(), results.back().evaluations,
                results.back().wall_seconds, results.back().front.size());
  }

  // Normalise against the combined reference front, as the paper does.
  const auto reference = moo::merge_fronts(fronts);
  const moo::ObjectiveBounds bounds = moo::bounds_of(reference);
  const auto reference_norm = moo::normalize_front(reference, bounds);

  TextTable table;
  table.set_header({"algorithm", "hypervolume", "IGD(Eq.3)", "spread*"});
  for (std::size_t i = 0; i < algorithms.size(); ++i) {
    if (results[i].front.empty()) {
      table.add_row({algorithms[i]->name(), "-", "-", "-"});
      continue;
    }
    const auto front = moo::normalize_front(results[i].front, bounds);
    table.add_row({algorithms[i]->name(),
                   format_double(moo::hypervolume(front, moo::unit_reference(3)), 4),
                   format_double(moo::paper_igd(front, reference_norm), 4),
                   format_double(moo::generalized_spread(front, reference_norm), 4)});
  }
  std::printf("\n%s", table.to_string().c_str());
  std::printf("(HV: higher better; IGD/spread: lower better; reference = "
              "merged best of all runs)\n");
  return 0;
} catch (const std::invalid_argument& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 2;
}
