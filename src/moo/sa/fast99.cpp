#include "moo/sa/fast99.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace aedbmls::moo {
namespace {

/// Spectrum power at integer frequency `w` over the uniformly spaced curve.
double spectrum_power(const std::vector<double>& y,
                      const std::vector<double>& s, std::size_t w) {
  double a = 0.0;
  double b = 0.0;
  const double wd = static_cast<double>(w);
  for (std::size_t j = 0; j < y.size(); ++j) {
    a += y[j] * std::cos(wd * s[j]);
    b += y[j] * std::sin(wd * s[j]);
  }
  const double n = static_cast<double>(y.size());
  a /= n;
  b /= n;
  return a * a + b * b;
}

double pearson(const std::vector<double>& x, const std::vector<double>& y) {
  const double n = static_cast<double>(x.size());
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace

Fast99::Fast99(Fast99Config config) : config_(config) {
  AEDB_REQUIRE(config_.harmonics >= 1, "harmonics must be >= 1");
  AEDB_REQUIRE(
      config_.samples_per_curve > 4 * config_.harmonics * config_.harmonics,
      "Fast99 needs Ns > 4*M^2");
  AEDB_REQUIRE(config_.resamples >= 1, "resamples must be >= 1");
}

Fast99Result Fast99::analyze(
    const std::vector<std::pair<double, double>>& domain, const Model& model,
    std::size_t output_count, par::ThreadPool* pool) const {
  const std::size_t k = domain.size();
  AEDB_REQUIRE(k >= 1, "no factors");
  const std::size_t ns = config_.samples_per_curve;
  const std::size_t m = config_.harmonics;

  // Frequency of the factor of interest and the complementary band.
  const std::size_t omega_hi = (ns - 1) / (2 * m);
  const std::size_t omega_lo_max = std::max<std::size_t>(1, omega_hi / (2 * m));

  // Curve parameter: uniformly spaced s in (-pi, pi].
  std::vector<double> s(ns);
  for (std::size_t j = 0; j < ns; ++j) {
    s[j] = std::numbers::pi *
           (2.0 * static_cast<double>(j + 1) - static_cast<double>(ns) - 1.0) /
           static_cast<double>(ns);
  }

  const CounterRng phases(config_.seed, {0xFA57});

  // Accumulators over resample curves.
  std::vector<Fast99Indices> acc(output_count);
  for (auto& indices : acc) {
    indices.first_order.assign(k, 0.0);
    indices.total_effect.assign(k, 0.0);
    indices.interaction.assign(k, 0.0);
    indices.direction.assign(k, 0.0);
  }
  std::size_t evaluations = 0;

  for (std::size_t curve = 0; curve < config_.resamples; ++curve) {
    for (std::size_t factor = 0; factor < k; ++factor) {
      // Frequency assignment: omega_hi for `factor`, 1..omega_lo_max cycled
      // over the complementary factors (R sensitivity::fast99 scheme).
      std::vector<std::size_t> omega(k);
      omega[factor] = omega_hi;
      std::size_t next = 1;
      for (std::size_t other = 0; other < k; ++other) {
        if (other == factor) continue;
        omega[other] = next;
        next = next % omega_lo_max + 1;
      }

      // Random phases per (curve, factor-of-interest, factor).
      std::vector<double> phi(k, 0.0);
      if (config_.phase_shift || config_.resamples > 1) {
        for (std::size_t f = 0; f < k; ++f) {
          phi[f] = phases.uniform((curve * k + factor) * k + f, 0.0,
                                  2.0 * std::numbers::pi);
        }
      }

      // Sample matrix for this curve.
      std::vector<std::vector<double>> points(ns, std::vector<double>(k));
      std::vector<double> own_axis(ns);  // x_factor, for the direction stat
      for (std::size_t j = 0; j < ns; ++j) {
        for (std::size_t f = 0; f < k; ++f) {
          const double g =
              0.5 + std::asin(std::sin(static_cast<double>(omega[f]) * s[j] +
                                       phi[f])) /
                        std::numbers::pi;
          points[j][f] = domain[f].first + (domain[f].second - domain[f].first) * g;
          if (f == factor) own_axis[j] = points[j][f];
        }
      }

      // Model evaluations (optionally parallel).
      std::vector<std::vector<double>> outputs(ns);
      if (pool != nullptr) {
        pool->parallel_for(ns, [&](std::size_t j) { outputs[j] = model(points[j]); });
      } else {
        for (std::size_t j = 0; j < ns; ++j) outputs[j] = model(points[j]);
      }
      evaluations += ns;

      for (std::size_t out = 0; out < output_count; ++out) {
        std::vector<double> y(ns);
        double y_mean = 0.0;
        for (std::size_t j = 0; j < ns; ++j) {
          AEDB_REQUIRE(outputs[j].size() == output_count,
                       "model returned wrong output count");
          y[j] = outputs[j][out];
          y_mean += y[j];
        }
        y_mean /= static_cast<double>(ns);

        // Total variance from the full half-spectrum.
        double v_total = 0.0;
        for (std::size_t w = 1; w <= (ns - 1) / 2; ++w) {
          v_total += 2.0 * spectrum_power(y, s, w);
        }
        // Constant (or numerically constant) outputs carry no sensitivity
        // information; without this guard the S_i ratio amplifies float
        // noise in the spectrum.
        if (v_total <= 1e-12 * (1.0 + y_mean * y_mean)) v_total = 0.0;
        // First order: harmonics of omega_hi.
        double v_i = 0.0;
        for (std::size_t p = 1; p <= m; ++p) {
          v_i += 2.0 * spectrum_power(y, s, p * omega_hi);
        }
        // Complementary variance: everything below omega_hi / 2.
        double v_rest = 0.0;
        for (std::size_t w = 1; w <= omega_hi / 2; ++w) {
          v_rest += 2.0 * spectrum_power(y, s, w);
        }

        double si = 0.0;
        double sti = 0.0;
        if (v_total > 0.0) {
          si = v_i / v_total;
          sti = 1.0 - v_rest / v_total;
        }
        acc[out].first_order[factor] += si;
        acc[out].total_effect[factor] += sti;
        acc[out].direction[factor] += pearson(own_axis, y);
      }
    }
  }

  // Average over curves; derive interactions.
  const double curves = static_cast<double>(config_.resamples);
  for (auto& indices : acc) {
    for (std::size_t f = 0; f < k; ++f) {
      indices.first_order[f] /= curves;
      indices.total_effect[f] /= curves;
      indices.direction[f] /= curves;
      indices.interaction[f] =
          std::max(indices.total_effect[f] - indices.first_order[f], 0.0);
    }
  }

  Fast99Result result;
  result.outputs = std::move(acc);
  result.evaluations = evaluations;
  return result;
}

}  // namespace aedbmls::moo
