/// E5 — regenerates **Figure 7**: boxplots of spread, IGD (the paper's
/// Eq. 3) and hypervolume over repeated runs of CellDE, NSGA-II and
/// AEDB-MLS for each scenario, after normalising against the combined
/// reference front (the paper's protocol).
///
/// Output: ASCII boxplot panels mirroring Fig. 7's 3x3 grid, per-cell
/// medians/IQRs, and a CSV of all samples under results/, named by the
/// campaign plan (`fig7_indicators_<scale>_<fingerprint>.csv`).
///
/// Beyond the paper: sweep any catalog workload with e.g.
/// `--scenarios=sparse-wide,highspeed` or contenders with `--algorithms=`.

#include <cstdio>

#include "common/table.hpp"
#include "experiment/bench_cli.hpp"
#include "expt/experiment.hpp"
#include "moo/stats/boxplot.hpp"

int main(int argc, char** argv) {
  using namespace aedbmls;
  const CliArgs args(argc, argv);
  check_flags_or_exit(args, {expt::kScaleFlags, expt::campaign_flags(),
                            expt::kAlgorithmFlags});
  const expt::Scale scale = expt::resolve_scale_or_exit(args);
  expt::print_header("bench_fig7_indicators",
                     "Figure 7 (indicator boxplots, 3 metrics x 3 scenarios)",
                     scale);
  const auto algorithms =
      expt::algorithms_or_exit(args, expt::paper_algorithms());

  // Honours --shard=i/N / --merge=DIR for distributed campaigns
  // (EXPERIMENTS.md "Distributed campaigns").
  const expt::ExperimentPlan plan = expt::ExperimentPlan::of(algorithms, scale);
  const auto samples = expt::run_campaign_or_exit(args, plan).samples;

  struct Panel {
    const char* title;
    double expt::IndicatorSample::* member;
    bool smaller_better;
  };
  const Panel panels[] = {
      {"Spread (lower = better distributed)", &expt::IndicatorSample::spread, true},
      {"IGD / Eq.3 (lower = closer to reference)", &expt::IndicatorSample::igd, true},
      {"Hypervolume (higher = better)", &expt::IndicatorSample::hypervolume, false},
  };

  TextTable csv;
  csv.set_header({"algorithm", "scenario", "indicator", "value"});

  for (const Panel& panel : panels) {
    std::printf("=== %s ===\n", panel.title);
    for (const std::string& scenario : scale.scenarios) {
      std::vector<moo::BoxplotSeries> series;
      for (const auto& algorithm : algorithms) {
        auto values = expt::extract(samples, algorithm, scenario, panel.member);
        if (values.empty()) continue;
        for (const double v : values) {
          csv.add_row({algorithm, scenario, panel.title, format_double(v, 6)});
        }
        series.push_back(moo::BoxplotSeries{algorithm, std::move(values)});
      }
      if (series.empty()) continue;
      std::printf("-- %s --\n%s\n", scenario.c_str(),
                  moo::render_boxplots(series, 56, 4).c_str());
    }
  }

  std::printf("paper expectations (Fig. 7 at full scale): AEDB-MLS is\n"
              "competitive on spread (beats NSGA-II at 200/300 dev), while\n"
              "both MOEAs beat it on IGD and hypervolume at every density.\n");

  // Named by the plan, like its campaign store: another campaign at this
  // scale writes its own file.
  const std::string path =
      "results/" + expt::plan_file_stem("fig7_indicators", plan) + ".csv";
  write_text_file(path, csv.to_csv());
  std::printf("[out] %s\n", path.c_str());
  return 0;
}
