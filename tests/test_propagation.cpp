#include <gtest/gtest.h>

#include "sim/propagation/log_distance.hpp"

namespace aedbmls::sim {
namespace {

TEST(LogDistance, ReferenceLossAtOneMetre) {
  const LogDistancePropagation model;
  EXPECT_NEAR(model.loss_db(1.0), 46.6777, 1e-9);
  // Below the reference distance the loss saturates.
  EXPECT_NEAR(model.loss_db(0.1), 46.6777, 1e-9);
}

TEST(LogDistance, ThirtyDbPerDecadeWithExponentThree) {
  const LogDistancePropagation model;
  EXPECT_NEAR(model.loss_db(10.0) - model.loss_db(1.0), 30.0, 1e-9);
  EXPECT_NEAR(model.loss_db(100.0) - model.loss_db(10.0), 30.0, 1e-9);
}

TEST(LogDistance, RxPowerMatchesLoss) {
  const LogDistancePropagation model;
  const double rx = model.rx_power_dbm(16.02, {0.0, 0.0}, {100.0, 0.0});
  EXPECT_NEAR(rx, 16.02 - (46.6777 + 30.0 * 2.0), 1e-9);
}

TEST(LogDistance, MonotoneDecreasingWithDistance) {
  const LogDistancePropagation model;
  double last = 1e9;
  for (double d = 1.0; d < 400.0; d *= 1.5) {
    const double rx = model.rx_power_dbm(16.02, {0.0, 0.0}, {d, 0.0});
    EXPECT_LT(rx, last);
    last = rx;
  }
}

TEST(LogDistance, DistanceForLossInvertsLoss) {
  const LogDistancePropagation model;
  for (const double d : {1.0, 5.0, 50.0, 140.0, 300.0}) {
    EXPECT_NEAR(model.distance_for_loss(model.loss_db(d)), d, 1e-6);
  }
  // Paper-scale check: default power reaches the sensitivity edge at ~140 m.
  const double edge = model.distance_for_loss(16.02 - (-95.0));
  EXPECT_GT(edge, 120.0);
  EXPECT_LT(edge, 160.0);
}

TEST(LogDistance, CustomExponent) {
  LogDistancePropagation::Config config;
  config.exponent = 2.0;
  const LogDistancePropagation model(config);
  EXPECT_NEAR(model.loss_db(10.0) - model.loss_db(1.0), 20.0, 1e-9);
}

}  // namespace
}  // namespace aedbmls::sim
