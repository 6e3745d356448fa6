/// Golden-value regression pins: the exact indicator-CSV bytes of one
/// campaign cell per catalog regime, captured from the hash-map statistics
/// path before the SoA (flat NodeId-indexed) rewrite.  The flat path must
/// reproduce these byte-for-byte — any drift means the statistics rewrite
/// (or anything upstream of it) changed simulated behaviour, not just its
/// storage layout.  One more pin covers an AEDB-MLS cell at a budget where
/// its workers reset.
///
/// Regenerate after an *intentional* behaviour change with:
///   AEDB_REGENERATE_GOLDEN=1 ./test_golden_indicators
/// which rewrites tests/golden/indicators_<regime>.csv in the source tree.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "expt/experiment.hpp"
#include "expt/scale.hpp"
#include "expt/scenario_catalog.hpp"

namespace aedbmls::expt {
namespace {

/// One cheap cell: a single Random-search run on a single evaluation
/// network.  Random search exercises the full simulation hot path (16
/// spread-out candidates per regime) without an optimiser's own state
/// muddying attribution.
Scale golden_scale(const std::string& scenario) {
  Scale scale;
  scale.name = "golden";
  scale.networks = 1;
  scale.runs = 1;
  scale.evals = 16;
  scale.scenarios = {scenario};
  scale.seed = 20130520;
  return scale;
}

std::string golden_path(const std::string& name) {
  return std::string(AEDB_GOLDEN_DIR) + "/indicators_" + name + ".csv";
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream data;
  data << in.rdbuf();
  return data.str();
}

std::string run_cell_csv(const std::string& algorithm, const Scale& scale) {
  ExperimentDriver::Options options;
  options.workers = 1;
  options.use_cache = false;
  options.verbose = false;
  const ExperimentPlan plan = ExperimentPlan::of({algorithm}, scale);
  const ExperimentResult result = ExperimentDriver(options).run(plan);
  return indicator_csv(result.samples);
}

/// Compares `csv` with the golden file `name`, or rewrites that file when
/// AEDB_REGENERATE_GOLDEN is set.
void expect_pinned(const std::string& csv, const std::string& name) {
  const std::string path = golden_path(name);
  if (std::getenv("AEDB_REGENERATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << csv;
    GTEST_SKIP() << "regenerated " << path;
  }

  const auto golden = read_file(path);
  ASSERT_TRUE(golden.has_value())
      << path << " missing — run AEDB_REGENERATE_GOLDEN=1 to create it";
  EXPECT_EQ(csv, *golden)
      << "indicator CSV '" << name << "' drifted from the pinned bytes";
}

class GoldenIndicators : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenIndicators, CellCsvBytesArePinned) {
  const std::string scenario = GetParam();
  expect_pinned(run_cell_csv("Random", golden_scale(scenario)), scenario);
}

/// The paper's own algorithm on d100: 240 evaluations over the smoke 2x2
/// layout give each worker 60 candidates and one reset, so the pinned
/// front also depends on reset sampling and archive admission order.
TEST(GoldenMls, CellCsvBytesArePinned) {
  Scale scale = golden_scale("d100");
  scale.evals = 240;
  expect_pinned(run_cell_csv("AEDB-MLS", scale), "AEDB-MLS_d100");
}

INSTANTIATE_TEST_SUITE_P(
    EveryCatalogRegime, GoldenIndicators,
    ::testing::ValuesIn(ScenarioCatalog::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace aedbmls::expt
