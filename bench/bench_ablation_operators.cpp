/// E9 — ablation of the paper's first contribution: the sensitivity-guided
/// search criteria (§IV-B) and the asymmetric Eq.-2 BLX step.  Four MLS
/// variants at identical budgets on each scenario:
///   * AEDB-MLS           — paper configuration (3 guided criteria, Eq. 2);
///   * AEDB-MLS-unguided  — one all-variables criterion (no guidance);
///   * AEDB-MLS-pervar    — per-variable criteria (guidance w/o grouping);
///   * AEDB-MLS-sym       — guided criteria but zero-bias symmetric step.
/// Scored by normalised hypervolume and IGD against the union reference
/// (the ExperimentDriver's per-scenario protocol).

#include <cstdio>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "experiment/bench_cli.hpp"
#include "expt/experiment.hpp"

int main(int argc, char** argv) {
  using namespace aedbmls;
  const CliArgs args(argc, argv);
  const expt::Scale scale = expt::resolve_scale_or_exit(args);
  expt::print_header("bench_ablation_operators",
                     "ablation: sensitivity-guided criteria & Eq.-2 step",
                     scale);

  const std::vector<std::string> variants{"AEDB-MLS", "AEDB-MLS-unguided",
                                          "AEDB-MLS-pervar", "AEDB-MLS-sym"};

  // Honours --shard=i/N / --merge=DIR for distributed campaigns.
  const auto samples =
      expt::run_campaign_or_exit(args,
                                 expt::ExperimentPlan::of(variants, scale))
          .samples;

  for (const std::string& scenario : scale.scenarios) {
    std::printf("--- %s ---\n", scenario.c_str());
    TextTable table;
    table.set_header({"variant", "hv mean", "hv sd", "igd mean", "igd sd"});
    for (const std::string& variant : variants) {
      RunningStats hv;
      RunningStats igd;
      for (const expt::IndicatorSample& s : samples) {
        if (s.algorithm != variant || s.scenario != scenario) continue;
        // An empty-front run carries placeholder zeros, not scores; it
        // must not pull igd toward perfect and hv toward worst.
        if (s.front_size == 0) continue;
        hv.add(s.hypervolume);
        igd.add(s.igd);
      }
      table.add_row({variant, format_double(hv.mean(), 4),
                     format_double(hv.stddev(), 4), format_double(igd.mean(), 4),
                     format_double(igd.stddev(), 4)});
    }
    std::printf("%s\n", table.to_string().c_str());
  }

  std::printf("expectation: guided criteria concentrate the budget on the\n"
              "variables that matter (border/neighbors/delays) and skip the\n"
              "inert margin, so the paper variant should match or beat the\n"
              "unguided one, most visibly at the denser instances.\n");
  return 0;
}
