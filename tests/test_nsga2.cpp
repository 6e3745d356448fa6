#include "moo/algorithms/nsga2.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "moo/core/dominance.hpp"
#include "moo/core/nds.hpp"
#include "moo/indicators/hypervolume.hpp"
#include "synthetic_problems.hpp"

namespace aedbmls::moo {
namespace {

Nsga2::Config small_config(std::size_t evaluations = 5000) {
  Nsga2::Config config;
  config.population_size = 40;
  config.max_evaluations = evaluations;
  return config;
}

TEST(Nsga2, ConvergesOnZdt1) {
  const Zdt1Problem problem(8);
  Nsga2 algorithm(small_config(8000));
  const AlgorithmResult result = algorithm.run(problem, 1);
  ASSERT_FALSE(result.front.empty());
  // The true front has HV ~ 2/3 under ref (1.01, 1.01) + boundary slack;
  // 8000 evaluations should reach at least 80% of it.
  const double hv = hypervolume(result.front, {1.01, 1.01});
  EXPECT_GT(hv, 0.55);
}

TEST(Nsga2, FrontIsMutuallyNonDominated) {
  const SchafferProblem problem;
  Nsga2 algorithm(small_config(2000));
  const AlgorithmResult result = algorithm.run(problem, 2);
  for (const Solution& a : result.front) {
    for (const Solution& b : result.front) {
      if (&a != &b) { EXPECT_FALSE(dominates(a, b)); }
    }
  }
}

TEST(Nsga2, RespectsEvaluationBudget) {
  const SchafferProblem problem;
  Nsga2 algorithm(small_config(1000));
  const AlgorithmResult result = algorithm.run(problem, 3);
  EXPECT_GE(result.evaluations, 1000u);
  EXPECT_LE(result.evaluations, 1000u + 40u);  // at most one extra generation
}

TEST(Nsga2, ConstrainedProblemYieldsFeasibleFront) {
  const BinhKornProblem problem;
  Nsga2 algorithm(small_config(4000));
  const AlgorithmResult result = algorithm.run(problem, 4);
  ASSERT_FALSE(result.front.empty());
  for (const Solution& s : result.front) EXPECT_TRUE(s.feasible());
}

TEST(Nsga2, DeterministicGivenSeed) {
  const SchafferProblem problem;
  Nsga2 a(small_config(1200));
  Nsga2 b(small_config(1200));
  const AlgorithmResult ra = a.run(problem, 77);
  const AlgorithmResult rb = b.run(problem, 77);
  ASSERT_EQ(ra.front.size(), rb.front.size());
  for (std::size_t i = 0; i < ra.front.size(); ++i) {
    EXPECT_EQ(ra.front[i].objectives, rb.front[i].objectives);
  }
}

TEST(Nsga2, DifferentSeedsExploreDifferently) {
  const Zdt1Problem problem(8);
  Nsga2 a(small_config(1200));
  const AlgorithmResult ra = a.run(problem, 1);
  const AlgorithmResult rb = a.run(problem, 2);
  bool identical = ra.front.size() == rb.front.size();
  if (identical) {
    for (std::size_t i = 0; i < ra.front.size(); ++i) {
      identical &= ra.front[i].objectives == rb.front[i].objectives;
    }
  }
  EXPECT_FALSE(identical);
}

TEST(Nsga2, ParallelEvaluatorMatchesBudget) {
  const Zdt1Problem problem(8);
  par::ThreadPool pool(2);
  const EvaluationEngine engine(&pool);
  Nsga2::Config config = small_config(2000);
  config.evaluator = &engine;
  Nsga2 algorithm(config);
  const AlgorithmResult result = algorithm.run(problem, 5);
  EXPECT_FALSE(result.front.empty());
  EXPECT_GE(result.evaluations, 2000u);
}

TEST(Nsga2, BeatsSparseRandomBaselineOnZdt1) {
  const Zdt1Problem problem(8);
  Nsga2 algorithm(small_config(4000));
  const AlgorithmResult evolved = algorithm.run(problem, 6);

  // Random sampling with the same budget.
  Xoshiro256 rng(6);
  std::vector<Solution> random_points(4000);
  for (Solution& s : random_points) {
    s.x = problem.random_point(rng);
    problem.evaluate_into(s);
  }
  const auto random_front = non_dominated_subset(random_points);
  const double hv_evolved = hypervolume(evolved.front, {1.01, 1.01});
  const double hv_random = hypervolume(random_front, {1.01, 1.01});
  EXPECT_GT(hv_evolved, hv_random);
}

}  // namespace
}  // namespace aedbmls::moo
