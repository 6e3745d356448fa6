/// Tests of the expt scale plumbing (presets, flag overrides, CLI
/// validation) and the indicator-sample helpers — the code every
/// table/figure bench routes through.

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "expt/experiment.hpp"
#include "expt/scale.hpp"

namespace aedbmls::expt {
namespace {

CliArgs args_of(std::initializer_list<const char*> argv) {
  std::vector<const char*> full{"bench"};
  full.insert(full.end(), argv.begin(), argv.end());
  return CliArgs(static_cast<int>(full.size()), full.data());
}

/// The variables `resolve_scale` refuses, and the flag each names.
constexpr struct {
  const char* variable;
  const char* flag;
} kRemovedVariables[] = {
    {"AEDB_SCALE", "--scale"},
    {"AEDB_SCENARIO", "--scenarios"},
    {"AEDB_FIDELITY", "--fidelity"},
    {"AEDB_FAULT_PLAN", "--fault-plan"},
};

class ScaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const auto& removed : kRemovedVariables) {
      ::unsetenv(removed.variable);
    }
  }
};

TEST_F(ScaleTest, SmokeIsTheDefault) {
  const Scale scale = resolve_scale(args_of({}));
  EXPECT_EQ(scale.name, "smoke");
  EXPECT_EQ(scale.networks, 3u);
  EXPECT_EQ(scale.runs, 5u);
  EXPECT_EQ(scale.scenarios,
            (std::vector<std::string>{"d100", "d200", "d300"}));
}

TEST_F(ScaleTest, PaperPresetMatchesSectionFive) {
  const Scale scale = resolve_scale(args_of({"--scale=paper"}));
  EXPECT_EQ(scale.networks, 10u);
  EXPECT_EQ(scale.runs, 30u);
  EXPECT_EQ(scale.evals, 24000u);
  EXPECT_EQ(scale.mls_populations, 8u);
  EXPECT_EQ(scale.mls_threads, 12u);
  EXPECT_EQ(scale.mls_evals_per_thread(), 250u);  // 24000 / 96, exact
  EXPECT_EQ(scale.mls_extra_evaluation_workers(), 0u);
  EXPECT_EQ(scale.mls_total_evaluations(), 24000u);
}

TEST_F(ScaleTest, MlsBudgetRemainderIsDistributedNotTruncated) {
  Scale scale;
  scale.evals = 120;
  scale.mls_populations = 8;
  scale.mls_threads = 12;  // 96 workers: the old division dropped 24 evals
  EXPECT_EQ(scale.mls_evals_per_thread(), 1u);
  EXPECT_EQ(scale.mls_extra_evaluation_workers(), 24u);
  EXPECT_EQ(scale.mls_total_evaluations(), 120u);

  // Budget smaller than the worker grid: the per-worker minimum of one
  // evaluation dominates and the effective total is reported, not hidden.
  scale.evals = 50;
  EXPECT_EQ(scale.mls_evals_per_thread(), 1u);
  EXPECT_EQ(scale.mls_extra_evaluation_workers(), 0u);
  EXPECT_EQ(scale.mls_total_evaluations(), 96u);
}

TEST_F(ScaleTest, RemovedVariablesThrowNamingTheirFlag) {
  // These variables once spelled a setting; a stale `AEDB_SCALE=paper` in
  // a shell would otherwise silently run the smoke preset.
  for (const auto& [variable, flag] : kRemovedVariables) {
    ::setenv(variable, "x", 1);
    try {
      (void)resolve_scale(args_of({}));
      ADD_FAILURE() << variable << " was not refused";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()),
                std::string(variable) + " is no longer read; pass " + flag +
                    "=x");
    }
    ::unsetenv(variable);
  }
}

TEST_F(ScaleTest, EmptyRemovedVariableIsIgnored) {
  for (const auto& removed : kRemovedVariables) {
    ::setenv(removed.variable, "", 1);
  }
  EXPECT_EQ(resolve_scale(args_of({})).name, "smoke");
  for (const auto& removed : kRemovedVariables) {
    ::unsetenv(removed.variable);
  }
}

TEST_F(ScaleTest, FlagsOverridePreset) {
  const Scale scale = resolve_scale(
      args_of({"--runs=7", "--evals=99", "--networks=2",
               "--scenarios=d100,d300", "--seed=5"}));
  EXPECT_EQ(scale.runs, 7u);
  EXPECT_EQ(scale.evals, 99u);
  EXPECT_EQ(scale.networks, 2u);
  EXPECT_EQ(scale.scenarios, (std::vector<std::string>{"d100", "d300"}));
  EXPECT_EQ(scale.seed, 5u);
}

TEST_F(ScaleTest, ScenarioFlagSelectsCatalogKeys) {
  const Scale scale =
      resolve_scale(args_of({"--scenarios=sparse-wide,highspeed"}));
  EXPECT_EQ(scale.scenarios,
            (std::vector<std::string>{"sparse-wide", "highspeed"}));
  EXPECT_THROW((void)resolve_scale(args_of({"--scenarios="})),
               std::invalid_argument);
}

TEST_F(ScaleTest, UnknownScaleNameIsRejectedWithTheOptions) {
  try {
    (void)resolve_scale(args_of({"--scale=bogus"}));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("bogus"), std::string::npos);
    EXPECT_NE(message.find("smoke"), std::string::npos);
    EXPECT_NE(message.find("paper"), std::string::npos);
  }
}

TEST_F(ScaleTest, UnknownScenarioIsRejectedWithTheCatalog) {
  try {
    (void)resolve_scale(args_of({"--scenarios=d100,underwater"}));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("underwater"), std::string::npos);
    EXPECT_NE(message.find("sparse-wide"), std::string::npos);
  }
}

TEST_F(ScaleTest, NonPositiveNumericOverridesAreRejected) {
  EXPECT_THROW((void)resolve_scale(args_of({"--runs=0"})),
               std::invalid_argument);
  EXPECT_THROW((void)resolve_scale(args_of({"--evals=-5"})),
               std::invalid_argument);
  EXPECT_THROW((void)resolve_scale(args_of({"--networks=two"})),
               std::invalid_argument);
  // Digits only, as every integer operand: a sign or a blank is malformed.
  EXPECT_THROW((void)resolve_scale(args_of({"--runs=+5"})),
               std::invalid_argument);
  EXPECT_THROW((void)resolve_scale(args_of({"--sa-samples= 5"})),
               std::invalid_argument);
}

TEST_F(ScaleTest, MalformedSeedIsRejectedNotSilentlyDefaulted) {
  EXPECT_THROW((void)resolve_scale(args_of({"--seed=0x2a"})),
               std::invalid_argument);
  EXPECT_THROW((void)resolve_scale(args_of({"--seed=-1"})),
               std::invalid_argument);
  EXPECT_EQ(resolve_scale(args_of({"--seed=0"})).seed, 0u);
}

TEST_F(ScaleTest, DuplicateScenariosAreRejected) {
  EXPECT_THROW((void)resolve_scale(args_of({"--scenarios=d100,d100"})),
               std::invalid_argument);
}

TEST(DominanceCount, CountsDominatedTargets) {
  auto make = [](double f1, double f2) {
    moo::Solution s;
    s.objectives = {f1, f2};
    s.evaluated = true;
    return s;
  };
  const std::vector<moo::Solution> strong{make(0.0, 0.0)};
  const std::vector<moo::Solution> weak{make(1.0, 1.0), make(2.0, 2.0),
                                        make(-1.0, 5.0)};
  EXPECT_EQ(dominance_count(strong, weak), 2u);  // (-1,5) not dominated
  EXPECT_EQ(dominance_count(weak, strong), 0u);
}

TEST(Extract, FiltersByAlgorithmAndScenario) {
  std::vector<IndicatorSample> samples;
  for (const char* scenario : {"d100", "d200"}) {
    for (int run = 0; run < 3; ++run) {
      IndicatorSample s;
      s.algorithm = run % 2 == 0 ? "A" : "B";
      s.scenario = scenario;
      s.hypervolume = (scenario == std::string("d100") ? 100 : 200) + run;
      samples.push_back(s);
    }
  }
  const auto a100 =
      extract(samples, "A", "d100", &IndicatorSample::hypervolume);
  EXPECT_EQ(a100.size(), 2u);  // runs 0 and 2
  EXPECT_DOUBLE_EQ(a100[0], 100.0);
  EXPECT_DOUBLE_EQ(a100[1], 102.0);
  EXPECT_TRUE(
      extract(samples, "C", "d100", &IndicatorSample::hypervolume).empty());
}

}  // namespace
}  // namespace aedbmls::expt
