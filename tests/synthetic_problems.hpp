#pragma once

/// Analytic multi-objective test problems with known Pareto fronts, for
/// the optimiser suites: cheap stand-ins when exercising the search and
/// parallel machinery without the network simulator (a simulation
/// evaluation costs ~10^5 times more than ZDT1).  DTLZ2, which an example
/// uses too, lives in moo/problems/synthetic.hpp.

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "moo/core/problem.hpp"

namespace aedbmls::moo {

/// Schaffer's single-variable problem: f1 = x^2, f2 = (x-2)^2, x in [-5,5].
/// Pareto set: x in [0,2]; front: f2 = (sqrt(f1)-2)^2.
class SchafferProblem final : public Problem {
 public:
  [[nodiscard]] std::size_t dimensions() const override { return 1; }
  [[nodiscard]] std::size_t objective_count() const override { return 2; }
  [[nodiscard]] std::pair<double, double> bounds(std::size_t) const override {
    return {-5.0, 5.0};
  }
  [[nodiscard]] Result evaluate(const std::vector<double>& x) const override {
    AEDB_REQUIRE(x.size() == 1, "Schaffer is 1-D");
    const double v = x[0];
    return {{v * v, (v - 2.0) * (v - 2.0)}, 0.0};
  }
  [[nodiscard]] std::string name() const override { return "Schaffer"; }
};

/// ZDT1 (Zitzler et al. 2000): n variables in [0,1], convex front
/// f2 = 1 - sqrt(f1) at g = 1.
class Zdt1Problem final : public Problem {
 public:
  explicit Zdt1Problem(std::size_t dimensions = 10) : dimensions_(dimensions) {}

  [[nodiscard]] std::size_t dimensions() const override { return dimensions_; }
  [[nodiscard]] std::size_t objective_count() const override { return 2; }
  [[nodiscard]] std::pair<double, double> bounds(std::size_t) const override {
    return {0.0, 1.0};
  }
  [[nodiscard]] Result evaluate(const std::vector<double>& x) const override {
    AEDB_REQUIRE(x.size() == dimensions_, "ZDT1 dimension mismatch");
    const double f1 = x[0];
    double g = 0.0;
    for (std::size_t i = 1; i < x.size(); ++i) g += x[i];
    g = 1.0 + 9.0 * g / static_cast<double>(x.size() - 1);
    const double f2 = g * (1.0 - std::sqrt(f1 / g));
    return {{f1, f2}, 0.0};
  }
  [[nodiscard]] std::string name() const override { return "ZDT1"; }

 private:
  std::size_t dimensions_;
};

/// Binh & Korn's constrained bi-objective problem: two box variables, two
/// inequality constraints aggregated into `constraint_violation`.  Validates
/// constraint-domination end to end.
class BinhKornProblem final : public Problem {
 public:
  [[nodiscard]] std::size_t dimensions() const override { return 2; }
  [[nodiscard]] std::size_t objective_count() const override { return 2; }
  [[nodiscard]] std::pair<double, double> bounds(std::size_t dim) const override {
    return dim == 0 ? std::pair{0.0, 5.0} : std::pair{0.0, 3.0};
  }
  [[nodiscard]] Result evaluate(const std::vector<double>& x) const override {
    AEDB_REQUIRE(x.size() == 2, "BinhKorn is 2-D");
    const double f1 = 4.0 * x[0] * x[0] + 4.0 * x[1] * x[1];
    const double f2 = (x[0] - 5.0) * (x[0] - 5.0) + (x[1] - 5.0) * (x[1] - 5.0);
    // g1: (x0-5)^2 + x1^2 <= 25 ; g2: (x0-8)^2 + (x1+3)^2 >= 7.7
    const double g1 = (x[0] - 5.0) * (x[0] - 5.0) + x[1] * x[1] - 25.0;
    const double g2 = 7.7 - ((x[0] - 8.0) * (x[0] - 8.0) +
                             (x[1] + 3.0) * (x[1] + 3.0));
    const double violation = std::max(0.0, g1) + std::max(0.0, g2);
    return {{f1, f2}, violation};
  }
  [[nodiscard]] std::string name() const override { return "BinhKorn"; }
};

/// A 3-objective, 5-variable, constrained toy with the same shape as the
/// AEDB tuning problem (including a "broadcast time"-like constraint driven
/// by variables 0 and 1).  Cheap enough for property sweeps of AEDB-MLS.
class MiniAedbLikeProblem final : public Problem {
 public:
  [[nodiscard]] std::size_t dimensions() const override { return 5; }
  [[nodiscard]] std::size_t objective_count() const override { return 3; }
  [[nodiscard]] std::pair<double, double> bounds(std::size_t dim) const override {
    // Mirrors AedbParams::domain() so MLS configs transfer unchanged.
    switch (dim) {
      case 0: return {0.0, 1.0};
      case 1: return {0.0, 5.0};
      case 2: return {-95.0, -70.0};
      case 3: return {0.0, 3.0};
      case 4: return {0.0, 50.0};
      default: AEDB_UNREACHABLE("MiniAedbLike has 5 variables");
    }
  }
  [[nodiscard]] Result evaluate(const std::vector<double>& x) const override {
    AEDB_REQUIRE(x.size() == 5, "MiniAedbLike is 5-D");
    // Normalised variables in [0,1].
    auto norm = [this, &x](std::size_t d) {
      const auto [lo, hi] = bounds(d);
      return (x[d] - lo) / (hi - lo);
    };
    const double delay = 0.5 * (norm(0) + norm(1));
    const double border = norm(2);     // 0 = widest forwarding area
    const double margin = norm(3);
    const double neighbors = norm(4);

    // Stylised trade-offs mimicking Table I's directions:
    // wider forwarding ring (border high) and low neighbors threshold =>
    // more coverage but more forwardings and energy; margin has only a
    // marginal effect (Table I: "very few"/"no" influence), as in the real
    // protocol.
    const double coverage =
        0.8 * (1.0 - border) + 0.25 * (1.0 - neighbors) + 0.02 * margin;
    const double forwardings =
        0.7 * (1.0 - border) + 0.4 * (1.0 - neighbors) + 0.1 * (1.0 - delay);
    const double energy = 0.6 * (1.0 - border) + 0.3 * (1.0 - neighbors) +
                          0.05 * margin + 0.1 * (1.0 - delay);
    const double bt = 2.5 * delay + 0.3 * (1.0 - border);  // constraint driver

    return {{energy, -coverage, forwardings}, std::max(0.0, bt - 2.0)};
  }
  [[nodiscard]] std::string name() const override { return "MiniAedbLike"; }
};

}  // namespace aedbmls::moo
