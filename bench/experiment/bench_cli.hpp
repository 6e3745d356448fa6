#pragma once

/// Thin CLI adapter between the bench mains and the `expt` library: scale
/// resolution with user-facing error reporting, algorithm-list parsing
/// against the registry, and the standard bench header.
///
/// The experiment machinery itself (AlgorithmRegistry, ScenarioCatalog,
/// ExperimentPlan/Driver) lives in `src/expt/`; see EXPERIMENTS.md for the
/// migration note from the old `make_algorithm`/`collect_indicator_samples`
/// plumbing.

#include <string>
#include <vector>

#include "common/cli.hpp"
#include "expt/experiment.hpp"
#include "expt/scale.hpp"

namespace aedbmls::expt {

/// `--list-scenarios` / `--list-algorithms`: prints the registered catalog
/// (name + one-line description) to stdout and exits 0.  No-op when
/// neither flag is present.  Called by `resolve_scale_or_exit`, so every
/// campaign bench supports the flags for free.
void maybe_list_catalogs_and_exit(const CliArgs& args);

/// `resolve_scale`, but invalid input (unknown scale/scenario names,
/// malformed numeric overrides, a `--fidelity` tier no swept scenario
/// declares) prints the error — which lists the valid options — to stderr
/// and exits with status 2.  Also honours the `--list-scenarios` /
/// `--list-algorithms` listing flags (exit 0).
[[nodiscard]] Scale resolve_scale_or_exit(const CliArgs& args);

/// Runs (or merges) a campaign, honouring the flags shared by every
/// campaign bench:
///   --workers=N    tasks the driver runs at once: its cells, their
///                  population batches and their MLS walks (digits only;
///                  0, the default, is one per hardware thread)
///   --shard=i/N    run only shard i of N (0-based) and write its cells
///                  as a cell log (expt/manifest.hpp) under --shard-dir
///                  (default "shards"), then exit 0 — a later --merge run
///                  reassembles the campaign (see EXPERIMENTS.md
///                  "Distributed campaigns")
///   --merge=DIR    skip execution: read + merge the cell logs under DIR
///                  against the plan, write the canonical indicator CSV
///                  and the campaign store under --cache-dir, and
///                  continue the bench on the merged samples
///   --serve=PORT   elastic coordinator: listen on PORT (0 = ephemeral),
///                  accept --workers=N worker processes (in this mode
///                  --workers names the fleet size, not driver threads —
///                  the coordinator runs no cells itself), pull-schedule
///                  the plan's cells over them with failed-worker requeue
///                  (expt::run_campaign_coordinator), and continue the
///                  bench on the reduced samples — byte-identical to an
///                  unsharded run
///   --connect=H:P  elastic worker: join the coordinator at HOST:PORT
///                  (retrying with backoff while it boots), compute cells
///                  on demand, then exit 0.  Env knobs:
///                  AEDB_NET_HEARTBEAT_MS / AEDB_NET_DEADLINE_MS /
///                  AEDB_NET_CONNECT_ATTEMPTS tune liveness + retries
///   --cache-dir=D  where the campaign store (a cell log: the cache, and
///                  the --serve crash-resume journal) and the indicator CSV
///                  live (default options.cache_dir, i.e. "results"); a
///                  finished campaign rerun on D replays every cell — its
///                  fronts and telemetry too — and runs none
///   --no-cache     neither replay nor write the store (nor the CSV);
///                  --merge still writes both
///   --progress[=N] live `[progress]` lines on stderr every N completed
///                  cells (N >= 1, digits only; a bare --progress is 1):
///                  cells-done/total, eval throughput, per-scenario mean
///                  cell time.  Works in plain, --shard and --serve modes
///                  (shard feeds count the shard's own cells; replayed
///                  cells count as completed); purely observational —
///                  result bytes are identical with or without it
///   --telemetry-out=FILE  dump the run's merged telemetry snapshot via
///                  the line codec (plain/--merge/--serve: the
///                  campaign-wide grid-order fold; --shard/--connect: the
///                  executor's own cells).  Written durably — atomic
///                  tmp+rename with a #crc32 trailer
///   --front-out=DIR  also write the per-scenario reference fronts,
///                  canonically sorted, as
///                  reference_<scale>_<fp>_<scenario>.csv under DIR.
///                  Full-campaign modes only (rejected with --shard /
///                  --connect, which hold partial results)
///   --fault-plan=SPEC  chaos drills: install a seeded deterministic
///                  fault-injection plan (grammar in common/fault.hpp,
///                  drills in EXPERIMENTS.md "Fault drills & chaos
///                  testing").  Falls back to the AEDB_FAULT_PLAN env var;
///                  a malformed spec exits 2
/// Without any of these flags this is exactly
/// `ExperimentDriver().run(plan)`.  The distribution modes are
/// mutually exclusive — a conflict names the clashing pair and exits 2,
/// as do malformed specs and campaign/merge failures.  Exit statuses: 0
/// success, 2 bad invocation or failed campaign, 3 (--connect only) the
/// coordinator vanished — missed heartbeat deadline or dead connection
/// (expt::CoordinatorLostError) — so supervisors can tell "restart the
/// coordinator" from "fix the command line".
[[nodiscard]] ExperimentResult run_campaign_or_exit(const CliArgs& args,
                                                   const ExperimentPlan& plan);

/// Algorithm names from `--algorithms=a,b` (default: `fallback`), validated
/// against the registry; unknown names print the registered list and exit 2.
[[nodiscard]] std::vector<std::string> algorithms_or_exit(
    const CliArgs& args, const std::vector<std::string>& fallback);

/// Prints the standard bench header: experiment id, the paper's fixed
/// configuration (Tables II/III) and the active scale + scenario sweep.
void print_header(const std::string& bench_name, const std::string& regenerates,
                  const Scale& scale);

}  // namespace aedbmls::expt
