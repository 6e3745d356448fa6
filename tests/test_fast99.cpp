#include "moo/sa/fast99.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace aedbmls::moo {
namespace {

/// Ishigami function: the standard FAST validation target with known
/// analytic indices (a=7, b=0.1):
///   S1 ~ 0.3139, S2 ~ 0.4424, S3 = 0, ST3 ~ 0.244.
double ishigami(const std::vector<double>& x) {
  constexpr double a = 7.0;
  constexpr double b = 0.1;
  return std::sin(x[0]) + a * std::sin(x[1]) * std::sin(x[1]) +
         b * x[2] * x[2] * x[2] * x[2] * std::sin(x[0]);
}

std::vector<std::pair<double, double>> ishigami_domain() {
  return {{-M_PI, M_PI}, {-M_PI, M_PI}, {-M_PI, M_PI}};
}

/// The indices of a one-output model.
Fast99Indices analyze_scalar(
    const Fast99& fast, const std::vector<std::pair<double, double>>& domain,
    const std::function<double(const std::vector<double>&)>& model,
    par::ThreadPool* pool = nullptr) {
  const Fast99::Model wrapped = [&model](const std::vector<double>& x) {
    return std::vector<double>{model(x)};
  };
  return fast.analyze(domain, wrapped, 1, pool).outputs.front();
}

TEST(Fast99, IshigamiFirstOrderIndices) {
  Fast99Config config;
  config.samples_per_curve = 1001;
  config.resamples = 2;
  config.seed = 4;
  const Fast99 fast(config);
  const Fast99Indices r = analyze_scalar(fast, ishigami_domain(), ishigami);
  ASSERT_EQ(r.first_order.size(), 3u);
  // Tolerances cover the known small-sample bias of the extended-FAST
  // estimator at Ns ~ 1000 (the R implementation shows similar spread).
  EXPECT_NEAR(r.first_order[0], 0.3139, 0.08);
  EXPECT_NEAR(r.first_order[1], 0.4424, 0.08);
  EXPECT_NEAR(r.first_order[2], 0.0, 0.03);
}

TEST(Fast99, IshigamiInteractionForX3) {
  Fast99Config config;
  config.samples_per_curve = 1001;
  config.resamples = 2;
  config.seed = 5;
  const Fast99 fast(config);
  const Fast99Indices r = analyze_scalar(fast, ishigami_domain(), ishigami);
  // x3 acts only through its interaction with x1 (ST3 ~ 0.24, S3 = 0).
  EXPECT_GT(r.interaction[2], 0.1);
  // x2 is purely additive: almost no interaction.
  EXPECT_LT(r.interaction[1], 0.1);
}

TEST(Fast99, LinearModelIndicesProportionalToSquaredWeights) {
  // y = 2*x0 + 1*x1 over [0,1]^2: V_i ~ w_i^2/12 => S0 = 4/5, S1 = 1/5.
  const auto model = [](const std::vector<double>& x) {
    return 2.0 * x[0] + x[1];
  };
  Fast99Config config;
  config.samples_per_curve = 513;
  const Fast99 fast(config);
  const Fast99Indices r = analyze_scalar(fast, {{0.0, 1.0}, {0.0, 1.0}}, model);
  EXPECT_NEAR(r.first_order[0], 0.8, 0.05);
  EXPECT_NEAR(r.first_order[1], 0.2, 0.05);
  EXPECT_LT(r.interaction[0], 0.05);
}

TEST(Fast99, DirectionTracksMonotonicity) {
  const auto model = [](const std::vector<double>& x) {
    return 3.0 * x[0] - 2.0 * x[1];
  };
  Fast99Config config;
  config.samples_per_curve = 257;
  const Fast99 fast(config);
  const Fast99Indices r = analyze_scalar(fast, {{0.0, 1.0}, {0.0, 1.0}}, model);
  EXPECT_GT(r.direction[0], 0.5);   // increasing
  EXPECT_LT(r.direction[1], -0.5);  // decreasing
}

TEST(Fast99, ConstantModelYieldsZeroIndices) {
  const auto model = [](const std::vector<double>&) { return 42.0; };
  Fast99Config config;
  config.samples_per_curve = 257;
  const Fast99 fast(config);
  const Fast99Indices r = analyze_scalar(fast, {{0.0, 1.0}, {0.0, 1.0}}, model);
  EXPECT_DOUBLE_EQ(r.first_order[0], 0.0);
  EXPECT_DOUBLE_EQ(r.first_order[1], 0.0);
}

TEST(Fast99, MultiOutputAnalysesEachIndependently) {
  const Fast99::Model model = [](const std::vector<double>& x) {
    return std::vector<double>{x[0], x[1]};
  };
  Fast99Config config;
  config.samples_per_curve = 257;
  const Fast99 fast(config);
  const Fast99Result r = fast.analyze({{0.0, 1.0}, {0.0, 1.0}}, model, 2);
  ASSERT_EQ(r.outputs.size(), 2u);
  EXPECT_GT(r.outputs[0].first_order[0], 0.8);
  EXPECT_LT(r.outputs[0].first_order[1], 0.1);
  EXPECT_GT(r.outputs[1].first_order[1], 0.8);
  EXPECT_LT(r.outputs[1].first_order[0], 0.1);
}

TEST(Fast99, EvaluationCountIsCurvesTimesFactorsTimesSamples) {
  const Fast99::Model model = [](const std::vector<double>& x) {
    return std::vector<double>{x[0]};
  };
  Fast99Config config;
  config.samples_per_curve = 257;
  config.resamples = 2;
  const Fast99 fast(config);
  const Fast99Result r = fast.analyze({{0.0, 1.0}, {0.0, 1.0}}, model, 1);
  EXPECT_EQ(r.evaluations, 2u * 2u * 257u);
}

TEST(Fast99, DeterministicGivenSeed) {
  Fast99Config config;
  config.samples_per_curve = 257;
  config.seed = 11;
  const Fast99 fast(config);
  const auto a = analyze_scalar(fast, ishigami_domain(), ishigami);
  const auto b = analyze_scalar(fast, ishigami_domain(), ishigami);
  EXPECT_DOUBLE_EQ(a.first_order[0], b.first_order[0]);
  EXPECT_DOUBLE_EQ(a.total_effect[2], b.total_effect[2]);
}

TEST(Fast99, ParallelPoolMatchesSerial) {
  Fast99Config config;
  config.samples_per_curve = 257;
  config.seed = 12;
  const Fast99 fast(config);
  par::ThreadPool pool(2);
  const auto serial = analyze_scalar(fast, ishigami_domain(), ishigami);
  const auto parallel = analyze_scalar(fast, ishigami_domain(), ishigami, &pool);
  EXPECT_DOUBLE_EQ(serial.first_order[0], parallel.first_order[0]);
  EXPECT_DOUBLE_EQ(serial.total_effect[1], parallel.total_effect[1]);
}

}  // namespace
}  // namespace aedbmls::moo
