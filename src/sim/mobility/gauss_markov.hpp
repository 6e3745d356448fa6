#pragma once

/// Gauss-Markov mobility (Liang & Haas 1999): velocity evolves as a
/// first-order autoregressive process, producing smoother, more realistic
/// trajectories than the memoryless random walk —
///   v_{n+1} = alpha*v_n + (1-alpha)*mean + sigma*sqrt(1-alpha^2)*w_n.
/// Updates happen on a fixed step (default 1 s); positions interpolate
/// linearly in between, and walls reflect the velocity.  Per-step noise is
/// drawn from a counter stream, so trajectories are pure functions of
/// (stream, t) like every other model in the library.
///
/// Not used by the paper's scenarios; provided for robustness studies of
/// tuned configurations under a different mobility regime.

#include "common/rng.hpp"
#include "sim/mobility/mobility_model.hpp"

namespace aedbmls::sim {

class GaussMarkovMobility final : public MobilityModel {
 public:
  struct Config {
    double width = 500.0;
    double height = 500.0;
    double alpha = 0.85;        ///< memory (0 = random walk, 1 = constant v)
    double mean_speed = 1.0;    ///< m/s, drift target
    double sigma_speed = 0.5;   ///< m/s, per-axis noise scale
    Time step = aedbmls::sim::seconds(1);  ///< velocity update period
  };

  GaussMarkovMobility(Config config, Vec2 initial, CounterRng stream);

  [[nodiscard]] Vec2 position(Time t) const override;
  [[nodiscard]] Vec2 velocity(Time t) const override;

 private:
  struct State {
    std::int64_t step_index = 0;
    Vec2 pos;
    Vec2 vel;
  };

  /// Advances the cached state to the step containing `t`.
  const State& state_at(Time t) const;
  [[nodiscard]] State advance(const State& s) const;

  Config config_;
  Vec2 initial_;
  CounterRng stream_;
  mutable State cache_;
};

}  // namespace aedbmls::sim
