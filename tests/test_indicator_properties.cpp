/// Cross-cutting metamorphic properties of the quality indicators —
/// relations that must hold for *any* front, checked on randomly generated
/// ones (TEST_P over seeds).

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "moo/core/dominance.hpp"
#include "moo/core/nds.hpp"
#include "moo/core/normalization.hpp"
#include "moo/indicators/hypervolume.hpp"
#include "moo/indicators/igd.hpp"
#include "moo/indicators/spread.hpp"

namespace aedbmls::moo {
namespace {

std::vector<Solution> random_front(Xoshiro256& rng, std::size_t n,
                                   std::size_t objectives) {
  std::vector<Solution> points;
  for (std::size_t i = 0; i < n; ++i) {
    Solution s;
    s.objectives.resize(objectives);
    for (double& f : s.objectives) f = rng.uniform();
    s.evaluated = true;
    points.push_back(std::move(s));
  }
  return non_dominated_subset(points);
}

class IndicatorProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndicatorProperties, HypervolumeMonotoneUnderAddingPoints) {
  Xoshiro256 rng(GetParam());
  auto front = random_front(rng, 30, 3);
  const auto reference = unit_reference(3, 0.1);
  const double before = hypervolume(front, reference);
  // Add a fresh random point: the union volume can only grow or stay.
  Solution extra;
  extra.objectives = {rng.uniform(), rng.uniform(), rng.uniform()};
  extra.evaluated = true;
  front.push_back(extra);
  const double after = hypervolume(front, reference);
  EXPECT_GE(after, before - 1e-12);
}

TEST_P(IndicatorProperties, HypervolumeInvariantToDuplicates) {
  Xoshiro256 rng(GetParam() + 10);
  auto front = random_front(rng, 20, 3);
  ASSERT_FALSE(front.empty());
  const auto reference = unit_reference(3, 0.1);
  const double before = hypervolume(front, reference);
  front.push_back(front.front());
  EXPECT_NEAR(hypervolume(front, reference), before, 1e-12);
}

TEST_P(IndicatorProperties, HypervolumeBoundedByReferenceBox) {
  Xoshiro256 rng(GetParam() + 20);
  const auto front = random_front(rng, 25, 3);
  const double hv = hypervolume(front, {1.0, 1.0, 1.0});
  EXPECT_GE(hv, 0.0);
  EXPECT_LE(hv, 1.0);
}

TEST_P(IndicatorProperties, GdZeroIffSubsetOfReference) {
  Xoshiro256 rng(GetParam() + 30);
  const auto reference = random_front(rng, 25, 3);
  if (reference.size() < 3) return;
  // Any subset of the reference has GD == 0 to it.
  std::vector<Solution> subset(reference.begin(),
                               reference.begin() + static_cast<std::ptrdiff_t>(
                                                       reference.size() / 2));
  EXPECT_DOUBLE_EQ(generational_distance(subset, reference), 0.0);
  // Shifting every point strictly away makes it positive.
  std::vector<Solution> shifted = subset;
  for (Solution& s : shifted) {
    for (double& f : s.objectives) f += 0.05;
  }
  EXPECT_GT(generational_distance(shifted, reference), 0.0);
}

TEST_P(IndicatorProperties, SpreadNonNegativeAndFinite) {
  Xoshiro256 rng(GetParam() + 60);
  const auto front = random_front(rng, 25, 3);
  const auto reference = random_front(rng, 25, 3);
  if (front.empty() || reference.empty()) return;
  const double value = generalized_spread(front, reference);
  EXPECT_GE(value, 0.0);
  EXPECT_TRUE(std::isfinite(value));
}

TEST_P(IndicatorProperties, NormalizationPreservesDominance) {
  Xoshiro256 rng(GetParam() + 70);
  std::vector<Solution> points;
  for (int i = 0; i < 20; ++i) {
    Solution s;
    s.objectives = {rng.uniform(0.0, 10.0), rng.uniform(-5.0, 5.0),
                    rng.uniform(100.0, 200.0)};
    s.evaluated = true;
    points.push_back(std::move(s));
  }
  const ObjectiveBounds bounds = bounds_of(points);
  const auto normalized = normalize_front(points, bounds);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = 0; j < points.size(); ++j) {
      EXPECT_EQ(compare_objectives(points[i].objectives, points[j].objectives),
                compare_objectives(normalized[i].objectives,
                                   normalized[j].objectives));
    }
  }
}

TEST_P(IndicatorProperties, HypervolumeOrderInvariant) {
  Xoshiro256 rng(GetParam() + 80);
  auto front = random_front(rng, 20, 3);
  if (front.size() < 3) return;
  const auto reference = unit_reference(3, 0.1);
  const double forward = hypervolume(front, reference);
  std::reverse(front.begin(), front.end());
  EXPECT_NEAR(hypervolume(front, reference), forward, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndicatorProperties,
                         ::testing::Values(101u, 202u, 303u, 404u));

}  // namespace
}  // namespace aedbmls::moo
