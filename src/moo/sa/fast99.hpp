#pragma once

/// Extended Fourier Amplitude Sensitivity Test ("Fast99", Saltelli,
/// Tarantola & Chan 1999) — the paper's §III-B sensitivity analysis.
///
/// Each factor i is explored along a space-filling search curve
///   x_i(s) = 0.5 + (1/π)·asin(sin(ω_i·s + φ_i)),   s ∈ (−π, π],
/// with a high frequency ω_i for the factor of interest and low
/// complementary frequencies for the others.  The output spectrum then
/// separates:
///   * first-order effect  S_i  = variance at harmonics of ω_i / total,
///   * total effect        S_Ti = 1 − variance below ω_i/2 / total,
///   * interactions        = S_Ti − S_i  (what Fig. 2 stacks on top of the
///     main effect).
/// Random phases φ give independent resample curves whose indices are
/// averaged.  A per-factor monotone `direction` (Pearson correlation of x_i
/// with the output along its own curve) supports Table I's △/▽ symbols.
///
/// Multi-output models are evaluated once and analysed per output — with a
/// simulation-backed model this quarters the cost of analysing the four
/// AEDB objectives.

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "par/thread_pool.hpp"

namespace aedbmls::moo {

struct Fast99Config {
  std::size_t samples_per_curve = 257;  ///< Ns; ω_i = (Ns−1)/(2M)
  std::size_t harmonics = 4;            ///< M (interference order)
  std::size_t resamples = 1;            ///< independent random-phase curves
  std::uint64_t seed = 1;               ///< phases (resamples > 1 or phase_shift)
  bool phase_shift = true;              ///< random φ even for a single curve
};

/// Indices for one model output.
struct Fast99Indices {
  std::vector<double> first_order;  ///< S_i per factor
  std::vector<double> total_effect; ///< S_Ti per factor
  std::vector<double> interaction;  ///< max(S_Ti − S_i, 0)
  std::vector<double> direction;    ///< corr(x_i, y) in [−1, 1]
};

struct Fast99Result {
  std::vector<Fast99Indices> outputs;  ///< one per model output
  std::size_t evaluations = 0;
};

class Fast99 {
 public:
  /// Thread-safe model: factor vector (inside `domain`) -> outputs.
  using Model = std::function<std::vector<double>(const std::vector<double>&)>;

  explicit Fast99(Fast99Config config);

  /// Runs the analysis over `domain` (per-factor [lo,hi]).  `output_count`
  /// outputs are expected from every model call.  `pool` parallelises the
  /// model evaluations when non-null.
  [[nodiscard]] Fast99Result analyze(
      const std::vector<std::pair<double, double>>& domain, const Model& model,
      std::size_t output_count, par::ThreadPool* pool = nullptr) const;

  [[nodiscard]] const Fast99Config& config() const noexcept { return config_; }

 private:
  Fast99Config config_;
};

}  // namespace aedbmls::moo
