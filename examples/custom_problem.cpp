/// The optimiser is problem-agnostic: this example tunes nothing network-
/// related at all.  It defines a custom welded-beam-style constrained
/// problem inline, then runs AEDB-MLS and NSGA-II on it and on the bundled
/// DTLZ2 benchmark — the same `moo::Problem` interface the AEDB tuning
/// problem implements.  It takes no arguments; any argument exits 2.

#include <cmath>
#include <cstdio>

#include "common/cli.hpp"
#include "core/mls.hpp"
#include "moo/algorithms/nsga2.hpp"
#include "moo/core/front_io.hpp"
#include "moo/core/normalization.hpp"
#include "moo/indicators/hypervolume.hpp"
#include "moo/problems/synthetic.hpp"

namespace {

/// Two-bar truss design: minimise (volume, stress) subject to a stress cap.
/// Variables: cross-sections a1, a2 [cm^2] and joint height y [m].
class TwoBarTruss final : public aedbmls::moo::Problem {
 public:
  [[nodiscard]] std::size_t dimensions() const override { return 3; }
  [[nodiscard]] std::size_t objective_count() const override { return 2; }
  [[nodiscard]] std::pair<double, double> bounds(std::size_t dim) const override {
    switch (dim) {
      case 0: return {0.1, 2.0};   // a1
      case 1: return {0.1, 2.0};   // a2
      default: return {1.0, 3.0};  // y
    }
  }
  [[nodiscard]] Result evaluate(const std::vector<double>& x) const override {
    const double a1 = x[0];
    const double a2 = x[1];
    const double y = x[2];
    const double l1 = std::sqrt(16.0 + y * y);
    const double l2 = std::sqrt(1.0 + y * y);
    const double volume = a1 * l1 + a2 * l2;
    const double s1 = 20.0 * l1 / (y * a1);
    const double s2 = 80.0 * l2 / (y * a2);
    const double stress = std::max(s1, s2);
    const double violation = std::max(0.0, stress - 100.0);
    return {{volume, stress}, violation};
  }
  [[nodiscard]] std::string name() const override { return "TwoBarTruss"; }
};

void report(const char* title, const aedbmls::moo::AlgorithmResult& result) {
  std::printf("  %-10s %5zu evals, %3zu points, %.2f s\n", title,
              result.evaluations, result.front.size(), result.wall_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aedbmls;
  check_flags_or_exit(CliArgs(argc, argv), {});

  std::printf("AEDB-MLS as a general multi-objective optimiser\n\n");

  // --- Custom constrained engineering problem ---
  const TwoBarTruss truss;
  core::MlsConfig mls_config;
  mls_config.populations = 2;
  mls_config.threads_per_population = 4;
  mls_config.evaluations_per_thread = 400;
  mls_config.reset_period = 50;
  // No sensitivity analysis for this problem: unguided all-variable steps.
  core::AedbMls mls(mls_config);
  const auto mls_result = mls.run(truss, 1);

  moo::Nsga2::Config nsga_config;
  nsga_config.population_size = 60;
  nsga_config.max_evaluations = 3200;
  moo::Nsga2 nsga2(nsga_config);
  const auto nsga_result = nsga2.run(truss, 1);

  std::printf("%s (constrained, 2 objectives):\n", truss.name().c_str());
  report("AEDB-MLS", mls_result);
  report("NSGA-II", nsga_result);

  const auto reference = moo::merge_fronts({mls_result.front, nsga_result.front});
  const auto bounds = moo::bounds_of(reference);
  const double hv_mls = moo::hypervolume(
      moo::normalize_front(mls_result.front, bounds), moo::unit_reference(2));
  const double hv_nsga = moo::hypervolume(
      moo::normalize_front(nsga_result.front, bounds), moo::unit_reference(2));
  std::printf("  normalised hypervolume: MLS %.4f vs NSGA-II %.4f\n\n", hv_mls,
              hv_nsga);

  // --- Bundled 3-objective benchmark ---
  const moo::Dtlz2Problem dtlz2(7);
  core::AedbMls mls2(mls_config);
  const auto dtlz_result = mls2.run(dtlz2, 2);
  std::printf("%s (3 objectives):\n", dtlz2.name().c_str());
  report("AEDB-MLS", dtlz_result);
  const double hv =
      moo::hypervolume(dtlz_result.front, {1.1, 1.1, 1.1});
  std::printf("  hypervolume vs (1.1)^3: %.4f (sphere-front optimum ~0.595)\n",
              hv);
  return 0;
}
