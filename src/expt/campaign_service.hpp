#pragma once

/// Elastic campaign service — pull-based cell scheduling over a
/// `par::net::Transport` world.
///
/// The `--shard` mode partitions the grid statically: every executor must
/// finish its slice or the campaign fails.  This service replaces the
/// static partition with a coordinator-owned queue: rank 0 holds the
/// plan's cells, workers *pull* one cell at a time (`ready`/`result` each
/// double as the next request), and a worker's death — surfaced by the
/// transport as `kPeerLeft` — simply requeues its in-flight cell for the
/// survivors.  The fleet is elastic: the campaign completes with any
/// number of workers alive at the end, as long as at least one survives.
///
/// Determinism contract: records are keyed by cell index and reduced in
/// plan order (`reduce_to_samples`, `merge_telemetry`), so the final
/// indicator CSV is byte-for-byte identical to an unsharded
/// `ExperimentDriver` run regardless of assignment order, worker count,
/// or mid-run failures.
///
/// Wire protocol (kData payloads, line-oriented; all peers validate the
/// plan fingerprint before any work is scheduled):
///
///   worker -> coord   ready <fingerprint-hex>
///   coord  -> worker  reject <reason>            (mismatch or violation)
///   coord  -> worker  cell <index>               (one assignment)
///   worker -> coord   result <index>\n<cell block>   (expt/manifest.hpp)
///   coord  -> worker  done                       (queue drained; part ways)
///
/// Scheduling order: cells whose scenario has no cost estimate first (to
/// learn their cost), then longest-expected-first (classic LPT makespan
/// heuristic), ties broken by lowest index.  Estimates are the mean wall
/// seconds of the scenario's completed cells, replayed ones included.
///
/// Crash resume: with caching enabled the campaign store
/// (`CampaignStore`, expt/manifest.hpp) is also the journal.  The
/// coordinator replays its verified prefix (rewriting a damaged file to
/// that prefix), appends every completed cell, and — when it computed
/// cells — finally rewrites it whole (`finish_campaign`), so a restarted
/// coordinator schedules only the remainder and a finished campaign is a
/// cache hit for the next run.
///
/// Durability: each appended record carries its own `crc` line, and the
/// rewrites go through an atomic tmp+rename.  Replay reads the store with
/// `read_cell_log`, so a torn tail, a bit-flipped record or another
/// plan's header degrade to replaying the valid prefix (with a warning) —
/// never an error, never silently trusting corrupt bytes.
///
/// Fault tolerance: a worker that sends a malformed or contradictory
/// result (or any unexpected message, a second `ready` included) is rejected and its in-flight cell
/// requeued — only losing *every* worker fails the campaign.  Fault
/// drills for all of these paths live behind `common/fault.hpp` plans
/// (`net.frame.*`, `io.journal.torn_tail`, `cell.stall_ms`, ...); see
/// EXPERIMENTS.md "Fault drills & chaos testing".

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "expt/experiment.hpp"
#include "expt/manifest.hpp"  // CellResult
#include "par/net/transport.hpp"

namespace aedbmls::expt {

/// Thrown by `run_campaign_worker` when the coordinator vanishes — missed
/// heartbeat deadline, closed connection, or unreachable at handshake.
/// Distinct from plain std::runtime_error so callers can exit with a
/// dedicated status (the campaign benches exit 3; see bench_cli.hpp).
class CoordinatorLostError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct CampaignCoordinatorOptions {
  /// Store behaviour (cache_dir, use_cache) and progress.  The coordinator
  /// runs no cells itself, so `workers` is ignored here.
  ExperimentDriver::Options driver;
};

struct CampaignWorkerOptions {
  /// Per-cell execution (workers, verbose).  Cells are always computed:
  /// the store fields are ignored.
  ExperimentDriver::Options driver;
  /// Fault injection for tests: after completing this many cells the
  /// worker abandons its next assignment by closing the transport
  /// (simulating a crash mid-cell).  0 = no limit.
  std::size_t max_cells = 0;
};

/// What a worker did, for operator reporting (`--telemetry-out`).  The
/// snapshot folds the worker's completed cells in completion order —
/// observational only; the coordinator owns the canonical grid-order fold.
struct WorkerReport {
  std::size_t cells_completed = 0;
  telemetry::Snapshot telemetry;
};

/// Runs the coordinator (rank 0) side: replays the campaign store like
/// `ExperimentDriver::run`, schedules every missing cell of `plan` over
/// the transport's workers, finishes in plan order (`finish_campaign`)
/// and returns the campaign result.  Throws std::runtime_error when every
/// worker departs with cells still incomplete.
[[nodiscard]] ExperimentResult run_campaign_coordinator(
    const ExperimentPlan& plan, par::net::Transport& transport,
    const CampaignCoordinatorOptions& options);

/// Runs the worker (rank >= 1) side: pulls cells until the coordinator
/// says `done`.  Throws CoordinatorLostError when the coordinator
/// disappears (heartbeat deadline, dead connection) and plain
/// std::runtime_error when it rejects the handshake (plan fingerprint
/// mismatch) or this worker.
[[nodiscard]] WorkerReport run_campaign_worker(
    const ExperimentPlan& plan, par::net::Transport& transport,
    const CampaignWorkerOptions& options);

}  // namespace aedbmls::expt
