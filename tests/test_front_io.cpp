#include "moo/core/front_io.hpp"

#include <gtest/gtest.h>

namespace aedbmls::moo {
namespace {

Solution make(std::vector<double> x, std::vector<double> objectives,
              double violation = 0.0) {
  Solution s;
  s.x = std::move(x);
  s.objectives = std::move(objectives);
  s.constraint_violation = violation;
  s.evaluated = true;
  return s;
}

TEST(FrontIo, CsvHoldsEveryValueAtFullPrecision) {
  // 17 significant digits: every double reads back to the same bits.
  const std::vector<Solution> front{
      make({0.1, 0.2}, {1.0, 2.0, 3.0}, 0.0),
      make({0.3, 0.4}, {4.0, 5.0, 6.0}, 0.25),
  };
  EXPECT_EQ(front_to_csv(front),
            "x0,x1,f0,f1,f2,cv\n"
            "0.10000000000000001,0.20000000000000001,1,2,3,0\n"
            "0.29999999999999999,0.40000000000000002,4,5,6,0.25\n");
}

TEST(FrontIo, EmptyFrontSerialisesEmpty) {
  EXPECT_TRUE(front_to_csv({}).empty());
}

TEST(MergeFronts, KeepsOnlyGlobalNonDominated) {
  const std::vector<Solution> a{make({0.0}, {1.0, 4.0}),
                                make({0.0}, {4.0, 4.0})};
  const std::vector<Solution> b{make({0.0}, {2.0, 2.0}),
                                make({0.0}, {4.0, 1.0})};
  const auto merged = merge_fronts({a, b});
  // {4,4} is dominated by {2,2}; the rest are mutually non-dominated.
  EXPECT_EQ(merged.size(), 3u);
  for (const Solution& s : merged) {
    EXPECT_FALSE(s.objectives == (std::vector<double>{4.0, 4.0}));
  }
}

TEST(MergeFronts, EmptyInputs) {
  EXPECT_TRUE(merge_fronts({}).empty());
  EXPECT_TRUE(merge_fronts({{}, {}}).empty());
}

TEST(MergeFronts, ReferenceFrontConstruction) {
  // The paper merges 30 runs x 3 algorithms; shape-check with 3 fronts.
  std::vector<std::vector<Solution>> runs;
  for (int run = 0; run < 3; ++run) {
    std::vector<Solution> front;
    for (int i = 0; i <= 10; ++i) {
      const double x = i / 10.0;
      // Later runs are uniformly better: only the last run's points survive.
      front.push_back(make({x}, {x, 1.0 - x + 0.1 * (2 - run)}));
    }
    runs.push_back(std::move(front));
  }
  const auto reference = merge_fronts(runs);
  EXPECT_EQ(reference.size(), 11u);
  for (const Solution& s : reference) {
    EXPECT_NEAR(s.objectives[0] + s.objectives[1], 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace aedbmls::moo
