#include "sim/mobility/random_walk.hpp"

#include <numbers>

#include "common/assert.hpp"

namespace aedbmls::sim {

RandomWalkMobility::RandomWalkMobility(Config config, Vec2 initial, CounterRng stream)
    : config_(config), initial_(initial), stream_(stream) {
  AEDB_REQUIRE(config_.width > 0.0 && config_.height > 0.0, "empty arena");
  AEDB_REQUIRE(config_.epoch > Time{}, "epoch must be positive");
  AEDB_REQUIRE(initial_.x >= 0.0 && initial_.x <= config_.width &&
                   initial_.y >= 0.0 && initial_.y <= config_.height,
               "initial position outside arena");
  cache_ = EpochState{0, Time{}, initial_, epoch_velocity(0)};
}

Vec2 RandomWalkMobility::epoch_velocity(std::int64_t k) const {
  const auto ku = static_cast<std::uint64_t>(k);
  const double angle =
      stream_.uniform(2 * ku, 0.0, 2.0 * std::numbers::pi);
  const double speed =
      stream_.uniform(2 * ku + 1, config_.min_speed, config_.max_speed);
  return {speed * std::cos(angle), speed * std::sin(angle)};
}

const RandomWalkMobility::EpochState& RandomWalkMobility::advance_to(
    Time t) const {
  AEDB_REQUIRE(t >= Time{}, "mobility query before t=0");
  const std::int64_t k = t / config_.epoch;
  if (k < cache_.index) {
    // Rare backwards query (e.g. a test); restart from epoch 0.
    cache_ = EpochState{0, Time{}, initial_, epoch_velocity(0)};
  }
  const double epoch_s = config_.epoch.seconds();
  while (cache_.index < k) {
    // Fold the epoch-end position back into the box; the epoch's velocity is
    // then replaced by a fresh draw, so its reflected sign is irrelevant.
    const Vec2 unbounded = cache_.start + cache_.vel * epoch_s;
    ++cache_.index;
    cache_.begin = config_.epoch * cache_.index;
    cache_.start = {wall_fold(unbounded.x, config_.width).value,
                    wall_fold(unbounded.y, config_.height).value};
    cache_.vel = epoch_velocity(cache_.index);
  }
  return cache_;
}

Vec2 RandomWalkMobility::velocity(Time t) const {
  const EpochState& e = epoch_at(t);
  const double dt = (t - e.begin).seconds();
  const Vec2 unbounded = e.start + e.vel * dt;
  return {e.vel.x * wall_fold(unbounded.x, config_.width).sign,
          e.vel.y * wall_fold(unbounded.y, config_.height).sign};
}

}  // namespace aedbmls::sim
