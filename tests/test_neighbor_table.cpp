#include "sim/apps/neighbor_table.hpp"

#include <gtest/gtest.h>

namespace aedbmls::sim {
namespace {

constexpr double kDefaultTx = 16.02;

// `furthest()` on a one-entry table reads that entry back.

TEST(NeighborTable, UpdateAndFind) {
  NeighborTable table;
  table.update(3, -80.0, kDefaultTx, seconds(1));
  const auto entry = table.furthest();
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->id, 3u);
  EXPECT_EQ(entry->path_loss_db, kDefaultTx - -80.0);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_FALSE(table.furthest({3}).has_value());
}

TEST(NeighborTable, RefreshKeepsLatestPower) {
  NeighborTable table;
  table.update(3, -80.0, kDefaultTx, seconds(1));
  table.update(3, -70.0, kDefaultTx, seconds(2));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.furthest()->path_loss_db, kDefaultTx - -70.0);
  EXPECT_EQ(table.furthest()->last_heard, seconds(2));
}

TEST(NeighborTable, PurgeDropsStaleEntries) {
  NeighborTable table(seconds_d(2.5));
  table.update(1, -80.0, kDefaultTx, seconds(1));
  table.update(2, -80.0, kDefaultTx, seconds(3));
  table.purge(seconds(4));  // entry 1 is 3 s old, entry 2 is 1 s old
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.furthest()->id, 2u);
}

TEST(NeighborTable, ForwardingAreaCountsWeakLinks) {
  NeighborTable table;
  // Symmetric assumption: a neighbour heard at rx <= border sits in the
  // forwarding area.  Border at -85 dBm.
  table.update(1, -90.0, kDefaultTx, seconds(1));  // in area
  table.update(2, -85.0, kDefaultTx, seconds(1));  // boundary: in area
  table.update(3, -60.0, kDefaultTx, seconds(1));  // too close
  EXPECT_EQ(table.count_in_forwarding_area(-85.0, kDefaultTx), 2u);
  EXPECT_EQ(table.count_in_forwarding_area(-95.0, kDefaultTx), 0u);
}

TEST(NeighborTable, ClosestToBorderPicksStrongestInArea) {
  NeighborTable table;
  table.update(1, -94.0, kDefaultTx, seconds(1));
  table.update(2, -86.0, kDefaultTx, seconds(1));  // closest to -85 from below
  table.update(3, -70.0, kDefaultTx, seconds(1));  // outside area
  const auto target = table.closest_to_border(-85.0, kDefaultTx);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(target->id, 2u);
}

TEST(NeighborTable, ClosestToBorderEmptyWhenNoArea) {
  NeighborTable table;
  table.update(1, -60.0, kDefaultTx, seconds(1));
  EXPECT_FALSE(table.closest_to_border(-85.0, kDefaultTx).has_value());
}

TEST(NeighborTable, FurthestSelectsLargestPathLoss) {
  NeighborTable table;
  table.update(1, -90.0, kDefaultTx, seconds(1));
  table.update(2, -60.0, kDefaultTx, seconds(1));
  const auto target = table.furthest();
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(target->id, 1u);
}

TEST(NeighborTable, FurthestHonoursExclusions) {
  NeighborTable table;
  table.update(1, -90.0, kDefaultTx, seconds(1));
  table.update(2, -80.0, kDefaultTx, seconds(1));
  const auto target = table.furthest({1});
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(target->id, 2u);
  EXPECT_FALSE(table.furthest({1, 2}).has_value());
}

}  // namespace
}  // namespace aedbmls::sim
