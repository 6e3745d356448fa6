#include "moo/algorithms/random_search.hpp"

#include <gtest/gtest.h>

#include "moo/core/dominance.hpp"
#include "synthetic_problems.hpp"

namespace aedbmls::moo {
namespace {

TEST(RandomSearch, ProducesNonDominatedFront) {
  const SchafferProblem problem;
  RandomSearch::Config config;
  config.max_evaluations = 500;
  RandomSearch algorithm(config);
  const AlgorithmResult result = algorithm.run(problem, 1);
  ASSERT_FALSE(result.front.empty());
  for (const Solution& a : result.front) {
    for (const Solution& b : result.front) {
      if (&a != &b) { EXPECT_FALSE(dominates(a, b)); }
    }
  }
}

TEST(RandomSearch, ExactBudget) {
  const SchafferProblem problem;
  RandomSearch::Config config;
  config.max_evaluations = 333;
  config.batch = 50;
  RandomSearch algorithm(config);
  const AlgorithmResult result = algorithm.run(problem, 2);
  EXPECT_EQ(result.evaluations, 333u);
}

TEST(RandomSearch, ArchiveBounded) {
  const Zdt1Problem problem(5);
  RandomSearch::Config config;
  config.max_evaluations = 2000;
  config.archive_capacity = 25;
  RandomSearch algorithm(config);
  const AlgorithmResult result = algorithm.run(problem, 3);
  EXPECT_LE(result.front.size(), 25u);
}

TEST(RandomSearch, Deterministic) {
  const SchafferProblem problem;
  RandomSearch::Config config;
  config.max_evaluations = 400;
  RandomSearch algorithm(config);
  const AlgorithmResult a = algorithm.run(problem, 5);
  const AlgorithmResult b = algorithm.run(problem, 5);
  ASSERT_EQ(a.front.size(), b.front.size());
}

TEST(RandomSearch, ParallelEvaluatorWorks) {
  const Zdt1Problem problem(5);
  par::ThreadPool pool(2);
  const EvaluationEngine engine(&pool);
  RandomSearch::Config config;
  config.max_evaluations = 600;
  config.evaluator = &engine;
  RandomSearch algorithm(config);
  const AlgorithmResult result = algorithm.run(problem, 6);
  EXPECT_EQ(result.evaluations, 600u);
  EXPECT_FALSE(result.front.empty());
}

}  // namespace
}  // namespace aedbmls::moo
