#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "sim/mobility/placement.hpp"
#include "sim/mobility/random_walk.hpp"
#include "sim/mobility/random_waypoint.hpp"

namespace aedbmls::sim {
namespace {

RandomWalkMobility::Config walk_config() {
  RandomWalkMobility::Config config;
  config.width = 500.0;
  config.height = 500.0;
  config.min_speed = 0.0;
  config.max_speed = 2.0;
  config.epoch = seconds(20);
  return config;
}

TEST(RandomWalk, StaysInsideArenaForLongHorizon) {
  const RandomWalkMobility walk(walk_config(), {250.0, 250.0}, CounterRng(1));
  for (int t = 0; t <= 4000; ++t) {  // 0..4000 s, past many epochs
    const Vec2 p = walk.position(seconds(t));
    EXPECT_GE(p.x, 0.0) << "t=" << t;
    EXPECT_LE(p.x, 500.0) << "t=" << t;
    EXPECT_GE(p.y, 0.0) << "t=" << t;
    EXPECT_LE(p.y, 500.0) << "t=" << t;
  }
}

TEST(RandomWalk, InitialPositionRespected) {
  const RandomWalkMobility walk(walk_config(), {10.0, 490.0}, CounterRng(2));
  const Vec2 p = walk.position(Time{});
  EXPECT_DOUBLE_EQ(p.x, 10.0);
  EXPECT_DOUBLE_EQ(p.y, 490.0);
}

TEST(RandomWalk, SpeedWithinConfiguredRange) {
  const RandomWalkMobility walk(walk_config(), {250.0, 250.0}, CounterRng(3));
  for (int t = 0; t < 500; t += 7) {
    const Vec2 v = walk.velocity(seconds(t));
    const double speed = v.norm();
    EXPECT_GE(speed, 0.0);
    EXPECT_LE(speed, 2.0 + 1e-9);
  }
}

TEST(RandomWalk, ConsistentWithSmallStepIntegration) {
  // Closed-form position must match explicit Euler integration of the
  // velocity (the velocity is piecewise constant up to reflections).
  const RandomWalkMobility walk(walk_config(), {100.0, 100.0}, CounterRng(4));
  Vec2 integrated = walk.position(Time{});
  const double dt = 0.01;
  for (int k = 0; k < 30000; ++k) {  // 300 s, crossing epochs and walls
    const Time t = seconds_d(k * dt);
    const Vec2 v = walk.velocity(t);
    integrated = integrated + v * dt;
  }
  const Vec2 closed = walk.position(seconds(300));
  EXPECT_NEAR(integrated.x, closed.x, 0.5);
  EXPECT_NEAR(integrated.y, closed.y, 0.5);
}

TEST(RandomWalk, DeterministicAcrossInstances) {
  const RandomWalkMobility a(walk_config(), {250.0, 250.0}, CounterRng(5));
  const RandomWalkMobility b(walk_config(), {250.0, 250.0}, CounterRng(5));
  for (int t = 0; t < 200; t += 13) {
    const Vec2 pa = a.position(seconds(t));
    const Vec2 pb = b.position(seconds(t));
    EXPECT_DOUBLE_EQ(pa.x, pb.x);
    EXPECT_DOUBLE_EQ(pa.y, pb.y);
  }
}

TEST(RandomWalk, DifferentStreamsDiverge) {
  const RandomWalkMobility a(walk_config(), {250.0, 250.0}, CounterRng(6));
  const RandomWalkMobility b(walk_config(), {250.0, 250.0}, CounterRng(7));
  const Vec2 pa = a.position(seconds(100));
  const Vec2 pb = b.position(seconds(100));
  EXPECT_FALSE(pa.x == pb.x && pa.y == pb.y);
}

TEST(RandomWalk, BackwardsQueryMatchesForwardQuery) {
  const RandomWalkMobility walk(walk_config(), {250.0, 250.0}, CounterRng(8));
  const Vec2 late = walk.position(seconds(100));
  const Vec2 early = walk.position(seconds(5));  // rewinds the cache
  const RandomWalkMobility fresh(walk_config(), {250.0, 250.0}, CounterRng(8));
  const Vec2 early_fresh = fresh.position(seconds(5));
  EXPECT_DOUBLE_EQ(early.x, early_fresh.x);
  EXPECT_DOUBLE_EQ(early.y, early_fresh.y);
  const Vec2 late_again = walk.position(seconds(100));
  EXPECT_DOUBLE_EQ(late.x, late_again.x);
  EXPECT_DOUBLE_EQ(late.y, late_again.y);
}

TEST(RandomWalk, VelocityChangesAcrossEpochs) {
  const RandomWalkMobility walk(walk_config(), {250.0, 250.0}, CounterRng(9));
  const Vec2 v0 = walk.velocity(seconds(1));
  const Vec2 v1 = walk.velocity(seconds(21));
  EXPECT_FALSE(v0.x == v1.x && v0.y == v1.y);
}

/// The fold as written before its in-box shortcut: always through `fmod`.
WallFold fmod_fold(double x, double limit) {
  if (limit <= 0.0) return {0.0, 1.0};
  const double period = 2.0 * limit;
  double m = std::fmod(x, period);
  if (m < 0.0) m += period;
  if (m <= limit) return {m, 1.0};
  return {period - m, -1.0};
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(RandomWalk, WallFoldIsBitwiseTheFmodFold) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double limit : {500.0, 1000.0, 0.3, 1e-3}) {
    std::vector<double> xs = {0.0,
                              -0.0,
                              limit,
                              std::nextafter(limit, kInf),
                              std::nextafter(limit, 0.0),
                              2.0 * limit,
                              std::nextafter(2.0 * limit, kInf),
                              3.0 * limit,
                              std::numeric_limits<double>::denorm_min(),
                              -std::numeric_limits<double>::denorm_min(),
                              -1e-300,
                              -0.5 * limit,
                              -limit,
                              -2.0 * limit,
                              -7.25 * limit,
                              -1e9};
    Xoshiro256 rng(7);
    for (int i = 0; i < 20000; ++i) xs.push_back(rng.uniform(-5.0, 5.0) * limit);
    for (const double x : xs) {
      const WallFold fast = wall_fold(x, limit);
      const WallFold reference = fmod_fold(x, limit);
      ASSERT_EQ(bits(fast.value), bits(reference.value)) << "x=" << x << " limit=" << limit;
      ASSERT_EQ(bits(fast.sign), bits(reference.sign)) << "x=" << x << " limit=" << limit;
    }
  }
}

TEST(RandomWalk, PositionsAreBitwiseTheFmodFoldOfTheClosedForm) {
  // A reference walk built from the public stream and the always-fmod
  // fold: per epoch a direction uniform in [0, 2pi) and a speed uniform in
  // [min, max], the epoch-end position folded back into the box.  Starts
  // on the walls (0, -0.0, limit) and fast enough to bounce many times.
  RandomWalkMobility::Config config = walk_config();
  config.min_speed = 20.0;
  config.max_speed = 60.0;
  const std::vector<Vec2> starts = {{0.0, 0.0}, {-0.0, 500.0}, {500.0, -0.0},
                                    {500.0, 500.0}, {123.5, 0.0}};
  for (std::size_t s = 0; s < starts.size(); ++s) {
    const CounterRng stream(100 + s);
    const RandomWalkMobility walk(config, starts[s], stream);
    auto velocity_of = [&](std::uint64_t k) {
      const double angle = stream.uniform(2 * k, 0.0, 2.0 * std::numbers::pi);
      const double speed = stream.uniform(2 * k + 1, config.min_speed, config.max_speed);
      return Vec2{speed * std::cos(angle), speed * std::sin(angle)};
    };
    Vec2 start = starts[s];
    std::uint64_t epoch = 0;
    for (std::int64_t ms = 0; ms <= 200000; ms += 250) {  // 0..200 s, 10 epochs
      const Time t = milliseconds(ms);
      while (static_cast<std::int64_t>(epoch + 1) * 20000 <= ms) {
        const Vec2 end = start + velocity_of(epoch) * config.epoch.seconds();
        start = {fmod_fold(end.x, config.width).value,
                 fmod_fold(end.y, config.height).value};
        ++epoch;
      }
      const double dt = (t - config.epoch * static_cast<std::int64_t>(epoch)).seconds();
      const Vec2 unbounded = start + velocity_of(epoch) * dt;
      const Vec2 p = walk.position(t);
      ASSERT_EQ(bits(p.x), bits(fmod_fold(unbounded.x, config.width).value))
          << "start " << s << " t=" << ms << " ms";
      ASSERT_EQ(bits(p.y), bits(fmod_fold(unbounded.y, config.height).value))
          << "start " << s << " t=" << ms << " ms";
    }
  }
}

TEST(ConstantPosition, NeverMoves) {
  const ConstantPositionMobility still({42.0, 7.0});
  EXPECT_EQ(still.position(seconds(100)).x, 42.0);
  EXPECT_EQ(still.velocity(seconds(100)).x, 0.0);
}

TEST(RandomWaypoint, StaysInsideArena) {
  RandomWaypointMobility::Config config;
  const RandomWaypointMobility model(config, {250.0, 250.0}, CounterRng(10));
  for (int t = 0; t < 2000; t += 3) {
    const Vec2 p = model.position(seconds(t));
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 500.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 500.0);
  }
}

TEST(RandomWaypoint, PausesAtWaypoints) {
  RandomWaypointMobility::Config config;
  config.pause = seconds(5);
  const RandomWaypointMobility model(config, {250.0, 250.0}, CounterRng(11));
  // Scan for a zero-velocity interval (a pause).
  bool paused = false;
  for (int t = 0; t < 2000 && !paused; ++t) {
    if (model.velocity(seconds(t)).norm() == 0.0) paused = true;
  }
  EXPECT_TRUE(paused);
}

TEST(Placement, UniformPositionsInsideAndDeterministic) {
  const auto a = uniform_positions(CounterRng(12), 100, 500.0, 400.0);
  const auto b = uniform_positions(CounterRng(12), 100, 500.0, 400.0);
  ASSERT_EQ(a.size(), 100u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i].x, 0.0);
    EXPECT_LE(a[i].x, 500.0);
    EXPECT_GE(a[i].y, 0.0);
    EXPECT_LE(a[i].y, 400.0);
    EXPECT_DOUBLE_EQ(a[i].x, b[i].x);
  }
}

}  // namespace
}  // namespace aedbmls::sim
