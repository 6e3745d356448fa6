#include <gtest/gtest.h>

#include <cmath>

#include "moo/core/normalization.hpp"
#include "moo/indicators/igd.hpp"
#include "moo/indicators/spread.hpp"

namespace aedbmls::moo {
namespace {

Solution make(std::vector<double> objectives) {
  Solution s;
  s.objectives = std::move(objectives);
  s.evaluated = true;
  return s;
}

std::vector<Solution> line_front(int n) {
  std::vector<Solution> front;
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / (n - 1);
    front.push_back(make({x, 1.0 - x}));
  }
  return front;
}

TEST(Gd, ZeroWhenFrontOnReference) {
  const auto reference = line_front(11);
  EXPECT_DOUBLE_EQ(generational_distance(reference, reference), 0.0);
  EXPECT_DOUBLE_EQ(paper_igd(reference, reference), 0.0);
}

TEST(Gd, MatchesHandComputedValue) {
  // One point at distance d from a single reference point:
  // sqrt(d^2)/1 = d.
  const std::vector<Solution> front{make({0.0, 0.0})};
  const std::vector<Solution> reference{make({3.0, 4.0})};
  EXPECT_DOUBLE_EQ(generational_distance(front, reference), 5.0);
}

TEST(Gd, Eq3NormalisationBySize) {
  // Two points each at distance 1: sqrt(1+1)/2.
  const std::vector<Solution> front{make({0.0, 1.0}), make({1.0, 0.0})};
  const std::vector<Solution> reference{make({0.0, 0.0}), make({1.0, 1.0})};
  EXPECT_DOUBLE_EQ(generational_distance(front, reference), std::sqrt(2.0) / 2.0);
}

TEST(GeneralizedSpread, UniformBetterThanClustered) {
  const auto reference = line_front(21);
  std::vector<Solution> clustered;
  for (int i = 0; i < 21; ++i) {
    const double x = 0.45 + 0.005 * i;
    clustered.push_back(make({x, 1.0 - x}));
  }
  EXPECT_LT(generalized_spread(reference, reference),
            generalized_spread(clustered, reference));
}

TEST(GeneralizedSpread, WorksWithThreeObjectives) {
  std::vector<Solution> front;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j + i < 5; ++j) {
      const double a = i / 4.0;
      const double b = j / 4.0;
      front.push_back(make({a, b, std::max(0.0, 1.0 - a - b)}));
    }
  }
  const double value = generalized_spread(front, front);
  EXPECT_GE(value, 0.0);
  EXPECT_LT(value, 1.5);
}

TEST(GeneralizedSpread, SinglePointIsOne) {
  const std::vector<Solution> one{make({0.5, 0.5})};
  EXPECT_DOUBLE_EQ(generalized_spread(one, line_front(5)), 1.0);
}

TEST(Normalization, BoundsAndMapping) {
  const std::vector<Solution> front{make({0.0, 10.0}), make({5.0, 20.0}),
                                    make({10.0, 30.0})};
  const ObjectiveBounds bounds = bounds_of(front);
  EXPECT_DOUBLE_EQ(bounds.lo[0], 0.0);
  EXPECT_DOUBLE_EQ(bounds.hi[0], 10.0);
  EXPECT_DOUBLE_EQ(bounds.lo[1], 10.0);
  EXPECT_DOUBLE_EQ(bounds.hi[1], 30.0);

  const auto p = normalize_point({5.0, 20.0}, bounds);
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 0.5);

  const auto normalized = normalize_front(front, bounds);
  EXPECT_DOUBLE_EQ(normalized.front().objectives[0], 0.0);
  EXPECT_DOUBLE_EQ(normalized.back().objectives[1], 1.0);
}

TEST(Normalization, DegenerateSpanMapsToZero) {
  const std::vector<Solution> front{make({5.0, 1.0}), make({5.0, 2.0})};
  const ObjectiveBounds bounds = bounds_of(front);
  const auto p = normalize_point({5.0, 1.5}, bounds);
  EXPECT_DOUBLE_EQ(p[0], 0.0);  // zero span in f0
  EXPECT_DOUBLE_EQ(p[1], 0.5);
}

TEST(Normalization, OutOfBoundsExtrapolates) {
  const std::vector<Solution> front{make({0.0, 0.0}), make({1.0, 1.0})};
  const auto p = normalize_point({2.0, -1.0}, bounds_of(front));
  EXPECT_DOUBLE_EQ(p[0], 2.0);
  EXPECT_DOUBLE_EQ(p[1], -1.0);
}

}  // namespace
}  // namespace aedbmls::moo
