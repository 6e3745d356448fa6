#pragma once

/// CampaignOptions — the unified campaign CLI surface.
///
/// Every campaign bench accepts the same distribution / observability
/// flags (`--workers`, `--shard`, `--merge`, `--serve`, `--connect`,
/// `--progress`, `--telemetry-out`, `--front-out`, `--cost-priors`,
/// `--fault-plan`, `--cache-dir`).  This header owns their parsing and
/// validation as one table-driven pass: each flag has a single descriptor
/// (spelling, operand grammar, which mode it selects), mode mutual
/// exclusion is diagnosed in one loop that names the clashing pair, and
/// every malformed operand throws `std::invalid_argument` with the
/// message the CLI front end prints verbatim.  The bench adapter
/// (`bench/experiment/bench_cli.cpp`) only dispatches on the result — it
/// no longer hand-parses anything.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/telemetry.hpp"
#include "expt/experiment.hpp"

namespace aedbmls::expt {

/// How a campaign's cells are distributed.  At most one of the
/// non-`kLocal` modes may be selected per invocation.
enum class CampaignMode {
  kLocal,    ///< plain in-process run (no distribution flag)
  kShard,    ///< --shard=i/N: run one shard, write a manifest, exit
  kMerge,    ///< --merge=DIR: reassemble shard manifests, no execution
  kServe,    ///< --serve=PORT: elastic coordinator over TCP workers
  kConnect,  ///< --connect=HOST:PORT: elastic worker
};

/// The validated campaign-wide options of one bench invocation.
struct CampaignOptions {
  CampaignMode mode = CampaignMode::kLocal;
  /// --workers=N, digits only: the driver's task count (0 = one per
  /// hardware thread); in --serve mode the fleet size, at least 1.
  std::size_t workers = 0;

  // --shard=i/N + --shard-dir
  std::size_t shard_index = 0;
  std::size_t shard_count = 0;
  std::string shard_dir = "shards";
  // --merge
  std::string merge_dir;
  // --serve
  std::uint16_t serve_port = 0;
  // --connect
  std::string connect_host;
  std::uint16_t connect_port = 0;

  /// --cache-dir override; nullopt keeps the driver default.
  std::optional<std::string> cache_dir;
  /// --progress[=N]: print a progress line every N completed cells.
  bool progress = false;
  std::size_t progress_every = 1;
  /// --telemetry-out=FILE (empty: none).  Written durably — atomic
  /// tmp+rename with a `#crc32` trailer (see `write_telemetry_file`).
  std::string telemetry_out;
  /// --front-out=DIR (empty: none): also write the per-scenario reference
  /// fronts, canonically sorted, as `reference_<scale>_<fp>_<scenario>.csv`
  /// under DIR.  Needs the full record set, so it is rejected in --shard
  /// and --connect modes (partial results only).
  std::string front_out;
  /// --cost-priors=FILE, loaded and validated at parse time (see
  /// `load_cost_priors`); empty when the flag is absent.
  std::map<std::string, double> cost_priors;
  /// --fault-plan=SPEC verbatim; nullopt falls back to AEDB_FAULT_PLAN.
  std::optional<std::string> fault_plan;
};

/// Parses + validates the campaign flags in one pass.  Throws
/// `std::invalid_argument` on any malformed operand, conflicting
/// distribution modes (the message names the clashing pair) or an
/// unreadable/invalid --cost-priors file.  Flags outside the campaign
/// surface are ignored (benches layer their own options on top).
[[nodiscard]] CampaignOptions parse_campaign_options(const CliArgs& args);

/// Loads scheduling priors from a `--telemetry-out` dump: verifies (and
/// strips) the `#crc32` trailer when present, decodes every line through
/// the telemetry codec, extracts the `scenario.<key>.wall_s` gauge means
/// and checks each key against the scenario catalog.  Throws
/// `std::invalid_argument` naming the path and offending line/key on a
/// truncated or corrupt file, a malformed line, a non-numeric gauge or a
/// scenario key the catalog does not know.
[[nodiscard]] std::map<std::string, double> load_cost_priors(
    const std::string& path);

/// Durably writes `snapshot` through the line codec to `path`: the bytes
/// carry a `#crc32` trailer and land via atomic tmp+fsync+rename, so a
/// crash mid-dump leaves either the previous file or the complete new one
/// — never a torn prefix that `--cost-priors` would half-parse.  Returns
/// the number of instrument lines written; throws `std::runtime_error` on
/// I/O failure.
std::size_t write_telemetry_file(const std::string& path,
                                 const telemetry::Snapshot& snapshot);

/// Writes the per-scenario reference fronts of `records` to
/// `<dir>/reference_<scale>_<fp hex>_<scenario>.csv` (the merge
/// artifacts' naming), canonically sorted (objectives, then violation,
/// then decision vector) so byte comparison is independent of archive
/// arrival order.  Creates `dir` on demand; throws on I/O failure.
void write_front_csvs(const std::string& dir, const ExperimentPlan& plan,
                      const std::vector<RunRecord>& records);

}  // namespace aedbmls::expt
