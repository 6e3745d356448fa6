#include <gtest/gtest.h>

#include "common/math_utils.hpp"
#include "common/units.hpp"
#include "sim/geom/vec2.hpp"

namespace aedbmls {
namespace {

TEST(Units, DbmMwRoundTrip) {
  EXPECT_DOUBLE_EQ(dbm_to_mw(0.0), 1.0);
  EXPECT_DOUBLE_EQ(dbm_to_mw(10.0), 10.0);
  EXPECT_DOUBLE_EQ(dbm_to_mw(-10.0), 0.1);
  EXPECT_NEAR(mw_to_dbm(dbm_to_mw(16.02)), 16.02, 1e-12);
  EXPECT_NEAR(mw_to_dbm(dbm_to_mw(-95.0)), -95.0, 1e-12);
}

TEST(Units, DbRatioRoundTrip) {
  EXPECT_DOUBLE_EQ(db_to_ratio(3.0103), std::pow(10.0, 0.30103));
  EXPECT_DOUBLE_EQ(db_to_ratio(10.0), 10.0);
  EXPECT_DOUBLE_EQ(db_to_ratio(-10.0), 0.1);
}

TEST(MathUtils, Distances) {
  const std::vector<double> a{0.0, 0.0, 0.0};
  const std::vector<double> b{1.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 9.0);
  EXPECT_DOUBLE_EQ(euclidean_distance(a, b), 3.0);
}

TEST(Vec2, Arithmetic) {
  const sim::Vec2 a{1.0, 2.0};
  const sim::Vec2 b{3.0, -1.0};
  EXPECT_EQ((a + b), (sim::Vec2{4.0, 1.0}));
  EXPECT_EQ((a - b), (sim::Vec2{-2.0, 3.0}));
  EXPECT_EQ((a * 2.0), (sim::Vec2{2.0, 4.0}));
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
}

TEST(Vec2, NormAndDistance) {
  EXPECT_DOUBLE_EQ((sim::Vec2{3.0, 4.0}).norm(), 5.0);
  EXPECT_DOUBLE_EQ(sim::distance({0.0, 0.0}, {3.0, 4.0}), 5.0);
}

}  // namespace
}  // namespace aedbmls
