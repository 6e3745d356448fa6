#pragma once

/// The AEDB tuning problem (Eq. 1 of the paper):
///
///   F(s) = [ min energy, max coverage, min forwardings ]  s.t.  bt < 2 s
///
/// A decision vector is the 5 AEDB parameters (Table III domains).  Each
/// evaluation simulates the candidate configuration on the *same*
/// `network_count` (10 in the paper) fixed random networks and averages the
/// metrics.  Internally all objectives are minimised: coverage is negated
/// (`objectives()[1] = -mean coverage`).  The constraint violation is
/// `max(0, mean bt − 2 s)`.
///
/// `evaluate` is const and thread-safe: all expensive evaluation state is
/// per-thread, which is what lets AEDB-MLS run 96 concurrent evaluators.
/// Each worker thread owns a `ScenarioWorkspace` whose pooled
/// `SimulationContext`s, one per fixed evaluation network, keep the
/// simulation graphs alive across evaluations — `run_scenario` rebinds a
/// pooled graph (bitwise-identical to fresh construction) instead of
/// rebuilding `Simulator`/`Network`/apps on every call.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "aedb/scenario.hpp"
#include "moo/core/problem.hpp"

namespace aedbmls::aedb {

/// One reduced-fidelity evaluation tier: a cheaper, approximate spelling of
/// the tuning problem derived from the full scenario by shrinking the
/// simulated window.  Tier 0 is always the full problem; tiers are numbered
/// 1..N in ladder order.
///
/// A **conservative** tier's truncated run is an exact event-by-event
/// prefix of the full run, so each network's broadcast time can only shrink
/// and the tier's reported constraint violation is a *lower bound* of tier
/// 0's — violation > 0 at the tier proves the candidate infeasible at full
/// fidelity, with zero false rejections of feasible points.
struct FidelityTier {
  std::string name;           ///< label ("screen", ...)
  double window_s = 0.0;      ///< > 0: truncate to broadcast_at + window_s
  bool conservative = false;  ///< violation is a lower bound of tier 0's
};

class AedbTuningProblem final : public moo::Problem {
 public:
  struct Config {
    int devices_per_km2 = 100;      ///< 100 / 200 / 300 in the paper
    std::size_t network_count = 10; ///< fixed evaluation networks
    std::uint64_t seed = 20130520;  ///< identifies the network ensemble
    double bt_limit_s = 2.0;        ///< broadcast-time constraint
    ScenarioConfig scenario{};      ///< base scenario (node_count/seed set per network)
    /// Reduced-fidelity ladder: tier t (1-based) is `tiers[t - 1]`.
    std::vector<FidelityTier> tiers{};
    /// When non-zero, requested-tier-0 evaluations are *rebased* onto this
    /// tier — a whole-campaign approximate mode (`--fidelity=NAME`).  The
    /// experiment fingerprint must differ from the exact problem's.
    std::size_t forced_tier = 0;
  };

  explicit AedbTuningProblem(Config config);

  [[nodiscard]] std::size_t dimensions() const override;
  [[nodiscard]] std::size_t objective_count() const override { return 3; }
  [[nodiscard]] std::pair<double, double> bounds(std::size_t dim) const override;
  [[nodiscard]] Result evaluate(const std::vector<double>& x) const override;

  /// 1 + the configured ladder length.
  [[nodiscard]] std::size_t fidelity_levels() const override;

  /// First conservative ladder tier (1-based), or 0 when the ladder has
  /// none — optimisers screen rejections there without false negatives.
  [[nodiscard]] std::size_t screening_tier() const override;

  /// Evaluates at ladder tier `tier` (0 = full, unless `Config::forced_tier`
  /// rebases it).  Conservative tiers run the evaluation networks in order
  /// and stop early once the accumulated broadcast time already proves the
  /// bt constraint violated — the cheap-reject fast path.
  [[nodiscard]] Result evaluate_at(const std::vector<double>& x,
                                   std::size_t tier) const override;

  /// Batched evaluation with per-thread scenario reuse: the worker's
  /// `ScenarioWorkspace` is acquired once per batch, and its pooled
  /// `SimulationContext`s keep the fixed evaluation networks' entire
  /// simulation graphs alive across the whole batch and across batches on
  /// the same thread.  A batch may mix fidelity tiers
  /// (`Solution::fidelity`); each solution's recorded fidelity is the
  /// effective tier it was evaluated at.  Results are bitwise-identical to
  /// per-solution `evaluate_at()` calls.
  void evaluate_batch(std::span<moo::Solution> batch) const override;

  [[nodiscard]] std::string name() const override;

  /// Full per-objective detail of one configuration (used by the benches
  /// and the sensitivity analysis, which also needs the broadcast time).
  struct Detail {
    double mean_energy_dbm = 0.0;
    double mean_coverage = 0.0;     ///< positive (devices reached)
    double mean_forwardings = 0.0;
    double mean_broadcast_time_s = 0.0;
    double mean_energy_mj = 0.0;
  };
  /// Full-fidelity detail, on the calling thread's pooled contexts (the
  /// ones `evaluate` uses).
  [[nodiscard]] Detail evaluate_detail(const AedbParams& params) const;

  /// As above, on `workspace`'s pooled contexts; identical results either
  /// way.
  [[nodiscard]] Detail evaluate_detail(const AedbParams& params,
                                       ScenarioWorkspace& workspace) const;

  /// Scenario simulations run so far, all tiers (thread-safe).  The
  /// experiment layer snapshots this into its telemetry.
  [[nodiscard]] std::uint64_t scenario_runs() const noexcept;

  /// Simulator events executed across all scenario runs so far, all tiers
  /// (thread-safe) — the raw work metric behind eval-throughput telemetry.
  [[nodiscard]] std::uint64_t events_executed() const noexcept;

  /// Per-tier work counters (thread-safe).  `tier < fidelity_levels()`.
  struct TierCounters {
    std::uint64_t evaluations = 0;    ///< evaluations at this tier
    std::uint64_t scenario_runs = 0;  ///< simulations (early exits run fewer)
    std::uint64_t events_executed = 0;
  };
  [[nodiscard]] TierCounters tier_counters(std::size_t tier) const;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  /// Shared body of `evaluate`/`evaluate_batch`: one decision vector at one
  /// (already effective) tier through the given per-thread workspace.
  /// `explicit_tier` distinguishes a directly requested tier (a racing
  /// screen, whose only product is the rejection verdict) from a campaign
  /// rebased via `forced_tier` (whose objectives are the product): only the
  /// former may cut runs short once rejection is proven.
  [[nodiscard]] Result evaluate_with(ScenarioWorkspace& workspace,
                                     const std::vector<double>& x,
                                     std::size_t tier,
                                     bool explicit_tier) const;

  /// Detail at `tier` (0 = full) on `workspace`'s pooled contexts.
  /// `allow_reject_stop` arms the conservative tiers' mid-run
  /// infeasibility stop (see `ScenarioConfig::stop_when_bt_exceeds_s`).
  [[nodiscard]] Detail detail_at(const AedbParams& params,
                                 ScenarioWorkspace& workspace,
                                 std::size_t tier,
                                 bool allow_reject_stop) const;

  /// `requested != 0 ? requested : forced_tier`, bounds-checked.
  [[nodiscard]] std::size_t effective_tier(std::size_t requested) const;

  struct TierAtomics {
    std::atomic<std::uint64_t> evaluations{0};
    std::atomic<std::uint64_t> scenario_runs{0};
    std::atomic<std::uint64_t> events_executed{0};
  };

  Config config_;
  mutable std::vector<TierAtomics> tier_counts_;  ///< sized fidelity_levels()
};

}  // namespace aedbmls::aedb
