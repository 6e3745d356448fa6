/// E6 — regenerates **Table IV**: pairwise Wilcoxon rank-sum comparison of
/// CellDE, NSGA-II and AEDB-MLS on spread, IGD and hypervolume at 95%
/// confidence, one symbol per density ("N" row better, "v" worse, "-" not
/// significant), with the paper's published symbols alongside.
///
/// Reuses the cached indicator samples produced by bench_fig7_indicators
/// when available (same scale), so running the two in sequence costs one
/// campaign.

#include <cstdio>
#include <string>

#include "common/table.hpp"
#include "experiment/bench_cli.hpp"
#include "expt/experiment.hpp"
#include "moo/stats/wilcoxon.hpp"

namespace {

using namespace aedbmls;

struct Metric {
  const char* name;
  double expt::IndicatorSample::* member;
  bool smaller_better;
};

/// The paper's Table IV symbols, row-vs-column, three densities each
/// (100/200/300), translated to our "N"/"v"/"-" alphabet.
struct PaperRow {
  const char* metric;
  const char* row;
  const char* column;
  const char* symbols;
};
constexpr PaperRow kPaperTable[] = {
    {"Spread", "CellDE", "NSGAII", "NNN"},
    {"Spread", "CellDE", "AEDB-MLS", "N--"},
    {"Spread", "NSGAII", "AEDB-MLS", "-vv"},
    {"IGD", "CellDE", "NSGAII", "vv-"},
    {"IGD", "CellDE", "AEDB-MLS", "NNN"},
    {"IGD", "NSGAII", "AEDB-MLS", "NNN"},
    {"Hypervolume", "CellDE", "NSGAII", "vvv"},
    {"Hypervolume", "CellDE", "AEDB-MLS", "NNN"},
    {"Hypervolume", "NSGAII", "AEDB-MLS", "NNN"},
};

const char* paper_symbols(const char* metric, const std::string& row,
                          const std::string& column) {
  for (const PaperRow& entry : kPaperTable) {
    if (metric == std::string(entry.metric) && row == entry.row &&
        column == entry.column) {
      return entry.symbols;
    }
  }
  return "???";
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const expt::Scale scale = expt::resolve_scale_or_exit(args);
  expt::print_header("bench_tab4_wilcoxon",
                     "Table IV (pairwise Wilcoxon, 95% confidence)", scale);

  // Honours --shard=i/N / --merge=DIR for distributed campaigns.
  const auto samples =
      expt::run_campaign_or_exit(
          args, expt::ExperimentPlan::of(expt::paper_algorithms(), scale))
          .samples;

  const Metric metrics[] = {
      {"Spread", &expt::IndicatorSample::spread, true},
      {"IGD", &expt::IndicatorSample::igd, true},
      {"Hypervolume", &expt::IndicatorSample::hypervolume, false},
  };

  const auto& algorithms = expt::paper_algorithms();
  for (const Metric& metric : metrics) {
    std::printf("=== %s ===\n", metric.name);
    TextTable table;
    table.set_header({"row \\ column", "vs", "measured(100/200/300)",
                      "paper(100/200/300)"});
    for (std::size_t i = 0; i < algorithms.size(); ++i) {
      for (std::size_t j = i + 1; j < algorithms.size(); ++j) {
        std::string measured;
        for (const std::string& scenario : scale.scenarios) {
          const auto row_values =
              expt::extract(samples, algorithms[i], scenario, metric.member);
          const auto col_values =
              expt::extract(samples, algorithms[j], scenario, metric.member);
          if (row_values.size() < 2 || col_values.size() < 2) {
            measured += "?";
            continue;
          }
          measured += moo::comparison_symbol(moo::compare_samples(
              row_values, col_values, metric.smaller_better));
        }
        table.add_row({algorithms[i], algorithms[j], measured,
                       paper_symbols(metric.name, algorithms[i], algorithms[j])});
      }
    }
    std::printf("%s\n", table.to_string().c_str());
  }

  std::printf("legend: 'N' = row algorithm significantly better than column\n"
              "(Wilcoxon rank-sum, p < 0.05), 'v' = significantly worse,\n"
              "'-' = no significant difference, '?' = not enough runs.\n"
              "Note: at smoke scale (%zu runs) significance is rarer than the\n"
              "paper's 30-run campaign; directions should still align.\n",
              scale.runs);
  return 0;
}
