#pragma once

/// An analytic multi-objective benchmark problem with a known Pareto
/// front: an example of using the optimiser without the network simulator
/// (examples/custom_problem), and a 3-objective check for indicators and
/// archives.

#include "moo/core/problem.hpp"

namespace aedbmls::moo {

/// DTLZ2 with three objectives: the Pareto front is the unit-sphere octant
/// sum f_i^2 = 1.  Used to validate 3-objective indicators and archives.
class Dtlz2Problem final : public Problem {
 public:
  explicit Dtlz2Problem(std::size_t dimensions = 7) : dimensions_(dimensions) {}

  [[nodiscard]] std::size_t dimensions() const override { return dimensions_; }
  [[nodiscard]] std::size_t objective_count() const override { return 3; }
  [[nodiscard]] std::pair<double, double> bounds(std::size_t) const override {
    return {0.0, 1.0};
  }
  [[nodiscard]] Result evaluate(const std::vector<double>& x) const override;
  [[nodiscard]] std::string name() const override { return "DTLZ2"; }

 private:
  std::size_t dimensions_;
};

}  // namespace aedbmls::moo
