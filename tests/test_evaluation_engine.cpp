#include "moo/core/evaluation_engine.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "aedb/tuning_problem.hpp"
#include "common/rng.hpp"
#include "par/thread_pool.hpp"
#include "synthetic_problems.hpp"

namespace aedbmls::moo {
namespace {

/// A problem whose evaluation is internally stochastic but derives its
/// stream from the decision vector alone (the contract EvaluationEngine
/// relies on), so batch results must not depend on chunking or threads.
class CounterNoiseProblem final : public Problem {
 public:
  [[nodiscard]] std::size_t dimensions() const override { return 3; }
  [[nodiscard]] std::size_t objective_count() const override { return 2; }
  [[nodiscard]] std::pair<double, double> bounds(std::size_t) const override {
    return {0.0, 1.0};
  }
  [[nodiscard]] Result evaluate(const std::vector<double>& x) const override {
    std::uint64_t key = 0x5eedULL;
    for (const double v : x) {
      std::uint64_t bits = 0;
      static_assert(sizeof bits == sizeof v);
      std::memcpy(&bits, &v, sizeof bits);
      key = hash_combine(key, bits);
    }
    const CounterRng stream(key);
    Result r;
    r.objectives = {x[0] + stream.uniform(0), x[1] * stream.uniform(1)};
    return r;
  }
};

std::vector<Solution> random_batch(const Problem& problem, std::size_t count,
                                   std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Solution> batch(count);
  for (Solution& s : batch) s.x = problem.random_point(rng);
  return batch;
}

std::vector<Solution> sequential_reference(const Problem& problem,
                                           std::vector<Solution> batch) {
  for (Solution& s : batch) problem.evaluate_into(s);
  return batch;
}

void expect_bitwise_equal(const std::vector<Solution>& a,
                          const std::vector<Solution>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].objectives.size(), b[i].objectives.size()) << "solution " << i;
    for (std::size_t k = 0; k < a[i].objectives.size(); ++k) {
      // Bitwise, not approximate: determinism is the property under test.
      EXPECT_EQ(std::memcmp(&a[i].objectives[k], &b[i].objectives[k],
                            sizeof(double)),
                0)
          << "solution " << i << " objective " << k;
    }
    EXPECT_EQ(a[i].constraint_violation, b[i].constraint_violation)
        << "solution " << i;
    EXPECT_TRUE(b[i].evaluated);
  }
}

/// The determinism regression the build hinges on: engine results at 1, 4
/// and 12 threads are bitwise-identical to serial evaluate() results.
void check_thread_counts(const Problem& problem, std::size_t batch_size) {
  const auto reference = sequential_reference(
      problem, random_batch(problem, batch_size, /*seed=*/42));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{12}}) {
    par::ThreadPool pool(threads);
    const EvaluationEngine engine(&pool);
    auto batch = random_batch(problem, batch_size, /*seed=*/42);
    engine.evaluate(problem, batch);
    expect_bitwise_equal(reference, batch);
  }
}

TEST(EvaluationEngine, DeterministicAcrossThreadCountsOnSynthetic) {
  check_thread_counts(Zdt1Problem(8), 100);
}

TEST(EvaluationEngine, DeterministicAcrossThreadCountsOnCounterNoise) {
  check_thread_counts(CounterNoiseProblem{}, 64);
}

TEST(EvaluationEngine, DeterministicAcrossThreadCountsOnAedbTuning) {
  aedb::AedbTuningProblem::Config config;
  config.devices_per_km2 = 100;  // 25 nodes on the 500 m x 500 m arena
  config.network_count = 2;
  // Shrink the simulated window so the suite stays in the fast tier;
  // determinism does not depend on the timeline.
  config.scenario.beacon_start = sim::seconds(1);
  config.scenario.broadcast_at = sim::seconds(3);
  config.scenario.end_at = sim::seconds(6);
  const aedb::AedbTuningProblem problem(config);
  check_thread_counts(problem, 12);
}

TEST(EvaluationEngine, PoollessEngineMatchesSequential) {
  const Zdt1Problem problem(6);
  const auto reference =
      sequential_reference(problem, random_batch(problem, 40, 7));
  const EvaluationEngine engine;  // no pool: runs on the calling thread
  auto batch = random_batch(problem, 40, 7);
  engine.evaluate(problem, batch);
  expect_bitwise_equal(reference, batch);
}

TEST(EvaluationEngine, SkipsAlreadyEvaluatedSolutions) {
  const SchafferProblem problem;
  auto batch = random_batch(problem, 10, 3);
  problem.evaluate_into(batch[4]);
  const std::vector<double> frozen = batch[4].objectives;
  batch[4].objectives[0] += 123.0;  // a marker the engine must not overwrite

  const EvaluationEngine engine;
  engine.evaluate(problem, batch);
  EXPECT_EQ(batch[4].objectives[0], frozen[0] + 123.0);
  EXPECT_EQ(engine.stats().solutions, 9u);
  for (const Solution& s : batch) EXPECT_TRUE(s.evaluated);
}

TEST(EvaluationEngine, CountsChunksAndBatches) {
  const Zdt1Problem problem(4);
  par::ThreadPool pool(4);
  const EvaluationEngine engine(&pool);

  auto batch = random_batch(problem, 64, 11);
  engine.evaluate(problem, batch);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.solutions, 64u);
  EXPECT_GE(stats.chunks, 2u);   // actually spread over the pool
  EXPECT_LE(stats.chunks, 16u);  // 4 tasks per thread * 4 threads

  // A fully evaluated batch is a no-op.
  engine.evaluate(problem, batch);
  EXPECT_EQ(engine.stats().batches, 2u);
  EXPECT_EQ(engine.stats().solutions, 64u);
}

/// Records the thread each `evaluate_batch` call ran on.
class ThreadRecordingProblem final : public Problem {
 public:
  [[nodiscard]] std::size_t dimensions() const override { return 2; }
  [[nodiscard]] std::size_t objective_count() const override { return 2; }
  [[nodiscard]] std::pair<double, double> bounds(std::size_t) const override {
    return {0.0, 1.0};
  }
  [[nodiscard]] Result evaluate(const std::vector<double>& x) const override {
    Result r;
    r.objectives = x;
    return r;
  }
  void evaluate_batch(std::span<Solution> batch) const override {
    callers.push_back(std::this_thread::get_id());
    Problem::evaluate_batch(batch);
  }
  mutable std::vector<std::thread::id> callers;
};

TEST(EvaluationEngine, OnePendingSolutionIsOneInlineChunk) {
  const ThreadRecordingProblem problem;
  par::ThreadPool pool(8);
  const EvaluationEngine engine(&pool);

  auto batch = random_batch(problem, 32, 13);
  for (std::size_t i = 1; i < batch.size(); ++i) problem.evaluate_into(batch[i]);
  engine.evaluate(problem, batch);
  EXPECT_EQ(engine.stats().solutions, 1u);
  EXPECT_EQ(engine.stats().chunks, 1u);
  ASSERT_EQ(problem.callers.size(), 1u);
  EXPECT_EQ(problem.callers[0], std::this_thread::get_id());
  for (const Solution& s : batch) EXPECT_TRUE(s.evaluated);
}

}  // namespace
}  // namespace aedbmls::moo
