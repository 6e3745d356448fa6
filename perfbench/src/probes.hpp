#pragma once

/// Layer probes of the traced run: the workload's own decision vectors,
/// solutions and fronts replayed through single layers' public functions
/// (pooled scenario runs, archive insertion, non-dominated sorting,
/// hypervolume), and sim-layer primitives timed at the workload's scale.

#include <cstdint>
#include <string>
#include <vector>

#include "aedb/tuning_problem.hpp"
#include "moo/core/solution.hpp"
#include "sim/net/network.hpp"

namespace perfbench {

namespace aedb = aedbmls::aedb;
namespace moo = aedbmls::moo;
namespace sim = aedbmls::sim;

/// The sampled decision vectors replayed through `run_scenario` on a
/// benchmark-owned `ScenarioWorkspace` (contexts built before timing, so
/// every timed run rebinds), concurrently on `threads` threads so the runs
/// see the workload's contention.  Context build cost comes from runs that
/// stop right after the broadcast starts, fresh vs pooled.
/// Times are thread CPU time.
struct PoolingProbe {
  double context_build_ms = 0.0;  ///< fresh brief run minus pooled brief run
  double rebind_run_ms = 0.0;     ///< mean pooled run
  double ns_per_event = 0.0;      ///< pooled run time / events executed
  std::uint64_t runs = 0;         ///< pooled runs timed, per thread
  std::uint64_t builds = 0;       ///< `SimulationContext::stats()`, per thread
  std::uint64_t rebinds = 0;      ///< (excluding the build probe's)
  std::string mismatch;  ///< non-empty when fresh and pooled runs differed
};
[[nodiscard]] PoolingProbe probe_pooling(
    const aedb::AedbTuningProblem::Config& config,
    const std::vector<std::vector<double>>& decision_vectors, std::size_t threads);

struct MooProbe {
  double archive_insert_us = 0.0;  ///< `AgaArchive::try_insert`, per call
  double nds_ms = 0.0;             ///< `fast_non_dominated_sort`, per call
  double hv_ms = 0.0;              ///< `hypervolume` of a normalised front
};
[[nodiscard]] MooProbe probe_moo(
    const std::vector<moo::Solution>& solutions,
    const std::vector<std::vector<moo::Solution>>& fronts);

struct SimProbe {
  double scheduler_op_ns = 0.0;    ///< one insert + one pop at `depth`
  double propagation_rx_ns = 0.0;  ///< `LogDistancePropagation::rx_power_dbm`
  double mobility_query_ns = 0.0;  ///< `RandomWalkMobility::position`
};
[[nodiscard]] SimProbe probe_sim(const sim::NetworkConfig& network,
                                 std::size_t depth);

}  // namespace perfbench
