#include "moo/algorithms/cellde.hpp"

#include <gtest/gtest.h>

#include "moo/core/dominance.hpp"
#include "moo/indicators/hypervolume.hpp"
#include "moo/problems/synthetic.hpp"
#include "synthetic_problems.hpp"

namespace aedbmls::moo {
namespace {

CellDe::Config small_config(std::size_t evaluations = 5000) {
  CellDe::Config config;
  config.grid_width = 7;
  config.grid_height = 7;
  config.max_evaluations = evaluations;
  config.archive_capacity = 50;
  config.feedback = 10;
  return config;
}

TEST(CellDe, ConvergesOnZdt1) {
  const Zdt1Problem problem(8);
  CellDe algorithm(small_config(8000));
  const AlgorithmResult result = algorithm.run(problem, 1);
  ASSERT_FALSE(result.front.empty());
  const double hv = hypervolume(result.front, {1.01, 1.01});
  EXPECT_GT(hv, 0.55);
}

TEST(CellDe, FrontMutuallyNonDominated) {
  const SchafferProblem problem;
  CellDe algorithm(small_config(2500));
  const AlgorithmResult result = algorithm.run(problem, 2);
  for (const Solution& a : result.front) {
    for (const Solution& b : result.front) {
      if (&a != &b) { EXPECT_FALSE(dominates(a, b)); }
    }
  }
}

TEST(CellDe, ArchiveCapacityRespected) {
  const Zdt1Problem problem(8);
  CellDe algorithm(small_config(4000));
  const AlgorithmResult result = algorithm.run(problem, 3);
  EXPECT_LE(result.front.size(), 50u);
}

TEST(CellDe, HandlesConstrainedProblem) {
  const BinhKornProblem problem;
  CellDe algorithm(small_config(4000));
  const AlgorithmResult result = algorithm.run(problem, 4);
  ASSERT_FALSE(result.front.empty());
  for (const Solution& s : result.front) EXPECT_TRUE(s.feasible());
}

TEST(CellDe, DeterministicGivenSeed) {
  const SchafferProblem problem;
  CellDe algorithm(small_config(1500));
  const AlgorithmResult a = algorithm.run(problem, 9);
  const AlgorithmResult b = algorithm.run(problem, 9);
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i].objectives, b.front[i].objectives);
  }
}

TEST(CellDe, RespectsEvaluationBudget) {
  const SchafferProblem problem;
  CellDe algorithm(small_config(1000));
  const AlgorithmResult result = algorithm.run(problem, 5);
  EXPECT_GE(result.evaluations, 1000u);
  EXPECT_LE(result.evaluations, 1000u + 49u);
}

TEST(CellDe, ThreeObjectiveProblem) {
  const Dtlz2Problem problem(7);
  CellDe algorithm(small_config(6000));
  const AlgorithmResult result = algorithm.run(problem, 6);
  ASSERT_FALSE(result.front.empty());
  const double hv = hypervolume(result.front, {1.1, 1.1, 1.1});
  EXPECT_GT(hv, 0.3);  // sphere front HV under 1.1 ref is ~0.55
}

}  // namespace
}  // namespace aedbmls::moo
