/// E7 — regenerates §VI's runtime comparison: AEDB-MLS needed 48/188/417
/// minutes per density where the serial MOEAs needed 32/123/264 hours —
/// >38x faster at 2.4x more evaluations, i.e. near-linear scaling over the
/// 96 workers (8 nodes x 12 cores).
///
/// On this machine we (a) measure the per-evaluation cost per density,
/// (b) run the serial EAs and the parallel MLS at matched smoke budgets and
/// report evaluations/second and the wall-clock ratio, and (c) project the
/// paper's full campaign (EAs 10000 evals serial, MLS 24000 evals parallel)
/// from the measured rates — the honest equivalent of the paper's minutes
/// table on different hardware (EXPERIMENTS.md "Deviations").

#include <chrono>
#include <cstdio>
#include <thread>

#include "common/table.hpp"
#include "experiment/bench_cli.hpp"
#include "expt/experiment.hpp"

int main(int argc, char** argv) {
  using namespace aedbmls;
  const CliArgs args(argc, argv);
  check_flags_or_exit(args, {expt::kScaleFlags});
  const expt::Scale scale = expt::resolve_scale_or_exit(args);
  expt::print_header("bench_runtime_speedup",
                     "§VI wall-clock comparison (38x claim)", scale);

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("hardware: %u cores here vs the paper's 96 workers "
              "(8 nodes x 12 cores)\n\n",
              cores);

  struct PaperTimes {
    const char* scenario;
    double mls_minutes;
    double ea_hours;
  };
  const PaperTimes paper[] = {
      {"d100", 48, 32}, {"d200", 188, 123}, {"d300", 417, 264}};

  TextTable table;
  table.set_header({"scenario", "algo", "evals", "wall [s]", "evals/s",
                    "speedup vs serial EA", "parallel efficiency"});

  TextTable projection;
  projection.set_header({"scenario", "projected serial EA [h]",
                         "projected MLS here [min]", "paper EA [h]",
                         "paper MLS [min]"});

  for (const std::string& scenario : scale.scenarios) {
    const expt::ScenarioSpec spec =
        expt::ScenarioCatalog::instance().resolve(scenario);
    const aedb::AedbTuningProblem problem(spec.problem_config(scale));
    auto& registry = expt::AlgorithmRegistry::instance();

    // --- serial NSGA-II (the paper ran its MOEAs single-threaded) ---
    auto nsga2 = registry.create("NSGAII", scale, /*evaluator=*/nullptr);
    const auto t0 = std::chrono::steady_clock::now();
    const moo::AlgorithmResult ea = nsga2->run(problem, scale.seed);
    const double ea_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double ea_rate = static_cast<double>(ea.evaluations) / ea_seconds;

    // --- parallel AEDB-MLS, 2.4x the evaluations (the paper's ratio) ---
    expt::Scale mls_scale = scale;
    mls_scale.evals = static_cast<std::size_t>(
        static_cast<double>(scale.evals) * 2.4);
    auto mls = registry.create("AEDB-MLS", mls_scale);
    const auto t1 = std::chrono::steady_clock::now();
    const moo::AlgorithmResult mls_result = mls->run(problem, scale.seed);
    const double mls_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
            .count();
    const double mls_rate =
        static_cast<double>(mls_result.evaluations) / mls_seconds;

    // Wall-clock speedup at the paper's budget ratio: time(EA at its budget)
    // over time(MLS at 2.4x budget), both scaled linearly from measurement.
    const double speedup =
        (static_cast<double>(ea.evaluations) / ea_rate) /
        (static_cast<double>(ea.evaluations) * 2.4 / mls_rate);

    // Per-worker efficiency: rate gain over serial, divided by the usable
    // parallelism (workers capped by physical cores) — the paper's implied
    // ~95% at 96 workers is the comparable figure.
    const std::size_t workers = std::min<std::size_t>(
        scale.mls_populations * scale.mls_threads, cores);
    const double efficiency =
        mls_rate / (ea_rate * static_cast<double>(workers));

    table.add_row({scenario, "NSGAII(serial)",
                   std::to_string(ea.evaluations), format_double(ea_seconds, 1),
                   format_double(ea_rate, 1), "1.0", "-"});
    table.add_row({scenario, "AEDB-MLS",
                   std::to_string(mls_result.evaluations),
                   format_double(mls_seconds, 1), format_double(mls_rate, 1),
                   format_double(speedup, 2), format_double(efficiency, 2)});

    // Projection of the full campaign on this machine.
    for (const PaperTimes& p : paper) {
      if (scenario != p.scenario) continue;
      const double projected_ea_h = 10000.0 / ea_rate / 3600.0;
      const double projected_mls_min = 24000.0 / mls_rate / 60.0;
      projection.add_row({scenario,
                          format_double(projected_ea_h, 2),
                          format_double(projected_mls_min, 1),
                          format_double(p.ea_hours, 0),
                          format_double(p.mls_minutes, 0)});
    }
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf("%s\n", projection.to_string().c_str());
  std::printf("interpretation: the paper's 38x combines ~96-way parallelism\n"
              "with the 2.4x evaluation ratio (38 * 2.4 ~ 91 ~ 96 workers at\n"
              "~95%% efficiency).  With %u cores the ceiling here is ~%.1fx;\n"
              "the measured per-worker efficiency is the portable claim.\n",
              cores, static_cast<double>(cores) / 2.4);
  return 0;
}
