#include "moo/problems/synthetic.hpp"

#include <cmath>
#include <numbers>

#include "common/assert.hpp"

namespace aedbmls::moo {

Problem::Result Dtlz2Problem::evaluate(const std::vector<double>& x) const {
  AEDB_REQUIRE(x.size() == dimensions_, "DTLZ2 dimension mismatch");
  AEDB_REQUIRE(dimensions_ >= 3, "DTLZ2 needs >= 3 variables");
  double g = 0.0;
  for (std::size_t i = 2; i < x.size(); ++i) {
    g += (x[i] - 0.5) * (x[i] - 0.5);
  }
  const double a = x[0] * std::numbers::pi / 2.0;
  const double b = x[1] * std::numbers::pi / 2.0;
  const double f1 = (1.0 + g) * std::cos(a) * std::cos(b);
  const double f2 = (1.0 + g) * std::cos(a) * std::sin(b);
  const double f3 = (1.0 + g) * std::sin(a);
  return {{f1, f2, f3}, 0.0};
}

}  // namespace aedbmls::moo
