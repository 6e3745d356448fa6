#include "moo/core/aga_archive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.hpp"
#include "moo/core/dominance.hpp"

namespace aedbmls::moo {
namespace {

Solution make(std::vector<double> objectives, double violation = 0.0) {
  Solution s;
  s.objectives = std::move(objectives);
  s.constraint_violation = violation;
  s.evaluated = true;
  return s;
}

/// Number of members in the archive's most crowded grid cell.
std::size_t max_cell_count(const AgaArchive& archive) {
  std::map<std::uint64_t, std::size_t> counts;
  std::size_t best = 0;
  for (const Solution& s : archive.contents()) {
    best = std::max(best, ++counts[archive.cell_of(s.objectives)]);
  }
  return best;
}

TEST(AgaArchive, AcceptsNonDominatedRejectsDominated) {
  AgaArchive archive(10);
  EXPECT_TRUE(archive.try_insert(make({2.0, 2.0})));
  EXPECT_TRUE(archive.try_insert(make({1.0, 3.0})));
  EXPECT_FALSE(archive.try_insert(make({3.0, 3.0})));  // dominated
  EXPECT_EQ(archive.size(), 2u);
}

TEST(AgaArchive, RemovesNewlyDominatedMembers) {
  AgaArchive archive(10);
  archive.try_insert(make({2.0, 2.0}));
  archive.try_insert(make({3.0, 1.0}));
  EXPECT_TRUE(archive.try_insert(make({1.0, 1.0})));  // dominates both
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_EQ(archive.contents().front().objectives, (std::vector<double>{1.0, 1.0}));
}

TEST(AgaArchive, RejectsDuplicates) {
  AgaArchive archive(10);
  EXPECT_TRUE(archive.try_insert(make({1.0, 2.0})));
  EXPECT_FALSE(archive.try_insert(make({1.0, 2.0})));
  EXPECT_EQ(archive.size(), 1u);
}

TEST(AgaArchive, NeverExceedsCapacity) {
  AgaArchive archive(8);
  Xoshiro256 rng(5);
  for (int i = 0; i < 500; ++i) {
    // Random points on a sloped front region: x + y ~ 1 with noise.
    const double x = rng.uniform();
    archive.try_insert(make({x, 1.0 - x + 0.01 * rng.uniform()}));
  }
  EXPECT_LE(archive.size(), 8u);
  EXPECT_GE(archive.size(), 2u);
}

TEST(AgaArchive, PropertyExtremesAreMaintained) {
  // Property (i) of §IV-A: objective-wise extreme solutions survive.
  AgaArchive archive(6);
  archive.try_insert(make({0.0, 1.0}));   // extreme in f0
  archive.try_insert(make({1.0, 0.0}));   // extreme in f1
  Xoshiro256 rng(6);
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(0.05, 0.95);
    archive.try_insert(make({x, 1.0 - x}));
  }
  bool has_f0_extreme = false;
  bool has_f1_extreme = false;
  for (const Solution& s : archive.contents()) {
    if (s.objectives == std::vector<double>{0.0, 1.0}) has_f0_extreme = true;
    if (s.objectives == std::vector<double>{1.0, 0.0}) has_f1_extreme = true;
  }
  EXPECT_TRUE(has_f0_extreme);
  EXPECT_TRUE(has_f1_extreme);
}

TEST(AgaArchive, PropertyMembersStayMutuallyNonDominated) {
  AgaArchive archive(12);
  Xoshiro256 rng(7);
  for (int i = 0; i < 400; ++i) {
    archive.try_insert(
        make({rng.uniform(), rng.uniform(), rng.uniform()}));
  }
  const auto& members = archive.contents();
  for (const Solution& a : members) {
    for (const Solution& b : members) {
      if (&a == &b) continue;
      EXPECT_FALSE(dominates(a, b));
    }
  }
}

TEST(AgaArchive, PropertyCrowdedRegionsAreThinned) {
  // Property (iii): a dense cluster cannot monopolise the archive while a
  // sparse region goes unrepresented.
  AgaArchive archive(6, 2);
  // Cluster of near-identical trade-offs around (0.5, 0.5)...
  Xoshiro256 rng(8);
  for (int i = 0; i < 100; ++i) {
    const double eps = 0.001 * rng.uniform();
    archive.try_insert(make({0.5 + eps, 0.5 - eps}));
  }
  // ...then candidates from empty regions must be accepted.
  EXPECT_TRUE(archive.try_insert(make({0.05, 0.95})));
  EXPECT_TRUE(archive.try_insert(make({0.95, 0.05})));
  EXPECT_EQ(max_cell_count(archive), archive.size() - 2);
}

TEST(AgaArchive, RejectsCandidateFromMostCrowdedCell) {
  AgaArchive archive(4, 2);
  archive.try_insert(make({0.0, 1.0}));
  archive.try_insert(make({1.0, 0.0}));
  archive.try_insert(make({0.50, 0.50}));
  archive.try_insert(make({0.51, 0.49}));
  // Archive full; a third member of the same central cell must be refused.
  EXPECT_FALSE(archive.try_insert(make({0.505, 0.495})));
  EXPECT_EQ(archive.size(), 4u);
}

TEST(AgaArchive, ConstraintDominationApplies) {
  AgaArchive archive(10);
  archive.try_insert(make({5.0, 5.0}, 0.5));   // infeasible placeholder
  EXPECT_TRUE(archive.try_insert(make({9.0, 9.0}, 0.0)));  // feasible wins
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_TRUE(archive.contents().front().feasible());
}

TEST(AgaArchive, SampleReturnsMembers) {
  AgaArchive archive(10);
  archive.try_insert(make({1.0, 2.0}));
  archive.try_insert(make({2.0, 1.0}));
  Xoshiro256 rng(9);
  const auto samples = archive.sample(20, rng);
  ASSERT_EQ(samples.size(), 20u);
  for (const Solution& s : samples) {
    const bool is_member =
        std::any_of(archive.contents().begin(), archive.contents().end(),
                    [&](const Solution& m) { return m.objectives == s.objectives; });
    EXPECT_TRUE(is_member);
  }
}

TEST(AgaArchive, CellOfIsConsistentForMembers) {
  AgaArchive archive(10, 3);
  archive.try_insert(make({0.0, 1.0}));
  archive.try_insert(make({1.0, 0.0}));
  archive.try_insert(make({0.5, 0.5}));
  // All members map into the grid without error and cells differ for the
  // extremes.
  const auto c1 = archive.cell_of({0.0, 1.0});
  const auto c2 = archive.cell_of({1.0, 0.0});
  EXPECT_NE(c1, c2);
}

TEST(AgaArchive, ThreeObjectiveStream) {
  AgaArchive archive(20, 3);
  Xoshiro256 rng(10);
  for (int i = 0; i < 1000; ++i) {
    // Random points near the unit simplex (mutually non-dominated mostly).
    const double a = rng.uniform();
    const double b = rng.uniform() * (1.0 - a);
    archive.try_insert(make({a, b, 1.0 - a - b}));
  }
  EXPECT_LE(archive.size(), 20u);
  EXPECT_GE(archive.size(), 10u);  // plenty of diversity available
}

}  // namespace
}  // namespace aedbmls::moo
