#pragma once

/// Crash drills without a crash: while a `ScopedFailingAlgorithm` lives,
/// the registered algorithm `name` runs as before, except that its `nth`
/// run (1-based, counted over every cell) throws std::runtime_error — a
/// campaign, or a shard, that dies mid-grid.  Shared by the driver, shard
/// and fault-injection suites.

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "expt/algorithm_registry.hpp"

namespace aedbmls::expt {

/// Runs `inner`, except that the `nth` run counted by `runs` throws.
class FailingAlgorithm final : public moo::Algorithm {
 public:
  FailingAlgorithm(std::unique_ptr<moo::Algorithm> inner,
                   std::shared_ptr<std::atomic<int>> runs, int nth)
      : inner_(std::move(inner)), runs_(std::move(runs)), nth_(nth) {}

  [[nodiscard]] moo::AlgorithmResult run(const moo::Problem& problem,
                                         std::uint64_t seed) override {
    if (++*runs_ == nth_) throw std::runtime_error("injected cell failure");
    return inner_->run(problem, seed);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<moo::Algorithm> inner_;
  std::shared_ptr<std::atomic<int>> runs_;
  int nth_;
};

/// Shadows `name` in the AlgorithmRegistry with a `FailingAlgorithm`
/// wrapper; the destructor restores the original entry.
class ScopedFailingAlgorithm {
 public:
  ScopedFailingAlgorithm(const std::string& name, int nth)
      : original_(*AlgorithmRegistry::instance().find(name)) {
    AlgorithmRegistry::instance().add(
        {original_.name, original_.description,
         [factory = original_.factory, runs = runs_, nth](
             const Scale& scale, const moo::EvaluationEngine* evaluator) {
           return std::make_unique<FailingAlgorithm>(
               factory(scale, evaluator), runs, nth);
         }});
  }
  ~ScopedFailingAlgorithm() { AlgorithmRegistry::instance().add(original_); }
  ScopedFailingAlgorithm(const ScopedFailingAlgorithm&) = delete;
  ScopedFailingAlgorithm& operator=(const ScopedFailingAlgorithm&) = delete;

 private:
  AlgorithmRegistry::Entry original_;
  std::shared_ptr<std::atomic<int>> runs_ =
      std::make_shared<std::atomic<int>>(0);
};

}  // namespace aedbmls::expt
