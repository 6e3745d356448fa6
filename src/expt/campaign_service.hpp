#pragma once

/// Elastic campaign service — pull-based cell scheduling over a
/// `par::net::Transport` world.
///
/// The shard/rank modes partition the grid statically: every executor must
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
///   coord  -> worker  reject <reason>            (fingerprint mismatch)
///   coord  -> worker  warm\n<indicator CSV>      (cache warm-up, optional)
///   coord  -> worker  cell <index>               (one assignment)
///   worker -> coord   result <index>\n<cell block>   (manifest v2 codec)
///   coord  -> worker  done                       (queue drained; part ways)
///
/// Scheduling order: cells whose scenario has no cost estimate first (to
/// learn their cost), then longest-expected-first (classic LPT makespan
/// heuristic), ties broken by lowest index.  Estimates come from
/// `scenario.<key>.wall_s` gauges — online from completed cells, seeded by
/// `CampaignCoordinatorOptions::cost_priors` (e.g. a previous campaign's
/// telemetry snapshot via `cost_priors_from_snapshot`).
///
/// Crash resume: with caching enabled the coordinator journals every
/// completed cell (append + flush) to `campaign_journal_path(...)`; a
/// restarted coordinator replays the journal and schedules only the
/// remainder.  The journal is deleted on successful completion.
///
/// Durability (journal format v2): each appended cell block is followed by
/// a `crc <8 hex>` line checksumming it, and the startup rewrite goes
/// through an atomic tmp+rename.  `load_campaign_journal` commits a block
/// only once its CRC line verifies, so a torn tail, a bit-flipped record,
/// a stale/wrong-fingerprint header or an empty file all degrade to
/// replaying the valid prefix (with a warning) — never an error, never
/// silently trusting corrupt bytes.
///
/// Fault tolerance: a worker that sends a malformed or contradictory
/// result (or any unexpected message) is rejected and its in-flight cell
/// requeued — only losing *every* worker fails the campaign.  Fault
/// drills for all of these paths live behind `common/fault.hpp` plans
/// (`net.frame.*`, `io.journal.torn_tail`, `cell.stall_ms`, ...); see
/// EXPERIMENTS.md "Fault drills & chaos testing".

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "expt/distributed_driver.hpp"  // CellResult
#include "expt/experiment.hpp"
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
  /// Reduction/cache behaviour (cache_dir, use_cache, collect_records,
  /// progress).  The coordinator runs no cells itself, so `workers` and
  /// `eval_threads` are ignored here.
  ExperimentDriver::Options driver;
  /// Expected wall seconds per scenario key, used to order the queue
  /// before any live observation exists (see
  /// `cost_priors_from_snapshot`).  Scheduling only — results are
  /// byte-identical with or without priors.
  std::map<std::string, double> cost_priors;
  /// Ship the plan's cached indicator CSV (when present) to every worker
  /// so a later worker-local `--merge`/plain run starts warm.
  bool warm_worker_caches = true;
  /// Journal completed cells for crash resume (requires
  /// `driver.use_cache`; the journal lives next to the CSV cache).
  bool journal = true;
};

struct CampaignWorkerOptions {
  /// Per-cell execution (workers, eval_threads, verbose).  `use_cache` only
  /// gates whether `warm` payloads are written to this worker's cache dir;
  /// cells themselves are always computed.
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

/// Runs the coordinator (rank 0) side: schedules every cell of `plan`
/// over the transport's workers, reduces in plan order, stores/loads the
/// CSV cache like `ExperimentDriver::run`, and returns the campaign
/// result.  Throws std::runtime_error when every worker departs with
/// cells still incomplete.
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

/// Replays the crash-resume journal at `path` for `plan`, returning the
/// valid prefix of CRC-verified cell results (empty on a missing file or
/// a header that does not match the plan).  Exposed for adversarial
/// testing; the coordinator calls it on startup.
[[nodiscard]] std::vector<CellResult> load_campaign_journal(
    const std::string& path, const ExperimentPlan& plan);

/// Extracts per-scenario expected wall seconds (gauge mean of
/// `scenario.<key>.wall_s`) from a telemetry snapshot — feed a previous
/// campaign's `--telemetry-out` file back in as scheduling priors.
[[nodiscard]] std::map<std::string, double> cost_priors_from_snapshot(
    const telemetry::Snapshot& snapshot);

/// `<dir>/campaign_<scale>_<fp hex>.journal` — the coordinator's
/// crash-resume journal for `plan`.
[[nodiscard]] std::string campaign_journal_path(const std::string& dir,
                                                const ExperimentPlan& plan);

}  // namespace aedbmls::expt
