#include "moo/operators/blx_alpha.hpp"

#include <cmath>

namespace aedbmls::moo {

double paper_blx_step(double sp, double tp, double alpha, Xoshiro256& rng) {
  const double phi = alpha * std::fabs(sp - tp);
  const double rho = rng.uniform();  // [0, 1)
  return sp + phi * (3.0 * rho - 2.0);
}

double symmetric_blx_step(double sp, double tp, double alpha, Xoshiro256& rng) {
  const double phi = alpha * std::fabs(sp - tp);
  const double rho = rng.uniform();
  return sp + phi * (3.0 * rho - 1.5);
}

}  // namespace aedbmls::moo
