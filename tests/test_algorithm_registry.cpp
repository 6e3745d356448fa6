/// AlgorithmRegistry round-trip: every registered name constructs through
/// its factory and completes a run at smoke scale on the real tuning
/// problem, unknown names fail with the registered list, and downstream
/// registrations can extend or shadow the builtins.

#include <gtest/gtest.h>

#include <stdexcept>

#include "aedb/tuning_problem.hpp"
#include "expt/algorithm_registry.hpp"
#include "expt/scale.hpp"
#include "expt/scenario_catalog.hpp"

namespace aedbmls::expt {
namespace {

Scale tiny_scale() {
  Scale scale;
  scale.networks = 1;
  scale.evals = 16;
  scale.mls_populations = 1;
  scale.mls_threads = 2;
  scale.seed = 77;
  return scale;
}

TEST(AlgorithmRegistry, BuiltinNamesAreRegistered) {
  auto& registry = AlgorithmRegistry::instance();
  for (const char* name :
       {"NSGAII", "CellDE", "AEDB-MLS", "AEDB-MLS-sym", "AEDB-MLS-unguided",
        "AEDB-MLS-pervar", "CellDE+MLS", "Random"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    const AlgorithmRegistry::Entry* entry = registry.find(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_FALSE(entry->description.empty()) << name;
  }
  for (const std::string& name : paper_algorithms()) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
}

TEST(AlgorithmRegistry, PaperAlgorithmListMatchesSectionSix) {
  EXPECT_EQ(paper_algorithms(),
            (std::vector<std::string>{"CellDE", "NSGAII", "AEDB-MLS"}));
}

TEST(AlgorithmRegistry, EveryRegisteredNameConstructsAndRuns) {
  const Scale scale = tiny_scale();
  const ScenarioSpec spec = ScenarioCatalog::instance().resolve("d100");
  const aedb::AedbTuningProblem problem(spec.problem_config(scale));
  for (const std::string& name : AlgorithmRegistry::instance().names()) {
    const auto algorithm =
        AlgorithmRegistry::instance().create(name, scale);
    ASSERT_NE(algorithm, nullptr) << name;
    const moo::AlgorithmResult result = algorithm->run(problem, scale.seed);
    EXPECT_GE(result.evaluations, 1u) << name;
    for (const moo::Solution& s : result.front) {
      EXPECT_TRUE(s.evaluated) << name;
      EXPECT_EQ(s.x.size(), 5u) << name;
      EXPECT_EQ(s.objectives.size(), 3u) << name;
    }
  }
}

TEST(AlgorithmRegistry, FactoryNamesMatchAlgorithmNames) {
  const Scale scale = tiny_scale();
  auto& registry = AlgorithmRegistry::instance();
  EXPECT_EQ(registry.create("NSGAII", scale)->name(), "NSGAII");
  EXPECT_EQ(registry.create("AEDB-MLS", scale)->name(), "AEDB-MLS");
}

TEST(AlgorithmRegistry, UnknownNameThrowsWithTheRegisteredList) {
  try {
    (void)AlgorithmRegistry::instance().create("SimulatedAnnealing",
                                               tiny_scale());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("SimulatedAnnealing"), std::string::npos);
    EXPECT_NE(message.find("AEDB-MLS"), std::string::npos);
    EXPECT_NE(message.find("NSGAII"), std::string::npos);
  }
}

TEST(AlgorithmRegistry, AddRegistersAndShadowsEntries) {
  auto& registry = AlgorithmRegistry::instance();
  const std::size_t before = registry.names().size();
  registry.add({"test-only", "registered by the test suite",
                [](const Scale& scale, const moo::EvaluationEngine* evaluator) {
                  return AlgorithmRegistry::instance().create("Random", scale,
                                                              evaluator);
                }});
  EXPECT_TRUE(registry.contains("test-only"));
  EXPECT_EQ(registry.names().size(), before + 1);
  // Last registration of a name wins (shadowing, not duplication).
  registry.add({"test-only", "shadowed",
                [](const Scale& scale, const moo::EvaluationEngine* evaluator) {
                  return AlgorithmRegistry::instance().create("NSGAII", scale,
                                                              evaluator);
                }});
  EXPECT_EQ(registry.names().size(), before + 1);
  EXPECT_EQ(registry.find("test-only")->description, "shadowed");
  EXPECT_EQ(registry.create("test-only", tiny_scale())->name(), "NSGAII");
}

}  // namespace
}  // namespace aedbmls::expt
