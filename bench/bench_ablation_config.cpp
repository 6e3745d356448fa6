/// E8 — regenerates the paper's §V configuration analysis: the 3x3 grid of
/// BLX-α alpha ∈ {0.1, 0.2, 0.3} x reset period ∈ {15, 25, 50} on the
/// sparsest network (100 devices/km²), scored by normalised hypervolume.
/// The paper selected (alpha = 0.2, reset = 50).

#include <cstdio>

#include "common/table.hpp"
#include "core/mls.hpp"
#include "experiment/bench_cli.hpp"
#include "expt/experiment.hpp"
#include "moo/core/front_io.hpp"
#include "moo/core/normalization.hpp"
#include "moo/indicators/hypervolume.hpp"

int main(int argc, char** argv) {
  using namespace aedbmls;
  const CliArgs args(argc, argv);
  check_flags_or_exit(args, {expt::kScaleFlags});
  const expt::Scale scale = expt::resolve_scale_or_exit(args);
  expt::print_header("bench_ablation_config",
                     "§V parameter study: alpha x reset grid (best = 0.2/50)",
                     scale);

  const double alphas[] = {0.1, 0.2, 0.3};
  const std::size_t resets[] = {15, 25, 50};
  // The paper tuned on the least dense Table II instance.
  const expt::ScenarioSpec spec =
      expt::ScenarioCatalog::instance().resolve("d100");
  const aedb::AedbTuningProblem problem(spec.problem_config(scale));

  // Run every cell `repeats` times; score = mean normalised hypervolume
  // against the union reference of all cells.
  const std::size_t repeats = std::max<std::size_t>(2, scale.runs / 2);
  struct Cell {
    std::vector<std::vector<moo::Solution>> fronts;
  };
  Cell cells[3][3];
  std::vector<std::vector<moo::Solution>> all_fronts;

  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t r = 0; r < 3; ++r) {
      for (std::size_t rep = 0; rep < repeats; ++rep) {
        core::MlsConfig config;
        config.populations = scale.mls_populations;
        config.threads_per_population = scale.mls_threads;
        config.evaluations_per_thread = scale.mls_evals_per_thread();
        config.extra_evaluation_workers = scale.mls_extra_evaluation_workers();
        config.alpha = alphas[a];
        config.reset_period = resets[r];
        config.criteria = core::aedb_criteria();
        core::AedbMls mls(config);
        const auto result = mls.run(
            problem, hash_combine(scale.seed, (a * 3 + r) * 100 + rep));
        cells[a][r].fronts.push_back(result.front);
        all_fronts.push_back(result.front);
      }
      std::printf("[run] alpha=%.1f reset=%zu done (%zu repeats)\n", alphas[a],
                  resets[r], repeats);
      std::fflush(stdout);
    }
  }

  const auto reference = moo::merge_fronts(all_fronts);
  const moo::ObjectiveBounds bounds = moo::bounds_of(reference);

  TextTable table;
  table.set_header({"alpha \\ reset", "15", "25", "50"});
  double best_hv = -1.0;
  std::size_t best_a = 0;
  std::size_t best_r = 0;
  for (std::size_t a = 0; a < 3; ++a) {
    std::vector<std::string> row{format_double(alphas[a], 1)};
    for (std::size_t r = 0; r < 3; ++r) {
      double mean_hv = 0.0;
      for (const auto& front : cells[a][r].fronts) {
        if (front.empty()) continue;
        mean_hv += moo::hypervolume(moo::normalize_front(front, bounds),
                                    moo::unit_reference(3));
      }
      mean_hv /= static_cast<double>(cells[a][r].fronts.size());
      if (mean_hv > best_hv) {
        best_hv = mean_hv;
        best_a = a;
        best_r = r;
      }
      row.push_back(format_double(mean_hv, 4));
    }
    table.add_row(std::move(row));
  }
  std::printf("\nmean normalised hypervolume over %zu repeats "
              "(100 devices/km^2):\n%s\n",
              repeats, table.to_string().c_str());
  std::printf("best cell here: alpha=%.1f, reset=%zu (hv %.4f); the paper "
              "selected alpha=0.2, reset=50.\n",
              alphas[best_a], resets[best_r], best_hv);
  return 0;
}
