#pragma once

/// CampaignOptions — the unified campaign CLI surface.
///
/// Every bench that runs a campaign accepts the same distribution /
/// observability flags (`--workers`, `--shard`, `--shard-dir`, `--merge`,
/// `--progress`, `--telemetry-out`, `--front-out`, `--fault-plan`,
/// `--cache-dir`, `--no-cache`), and declares them through
/// `campaign_flags()`.  This header owns their parsing and validation as
/// one table-driven pass: each flag has a single descriptor
/// (spelling, operand grammar, which mode it selects), mode mutual
/// exclusion is diagnosed in one loop that names the clashing pair, and
/// every malformed operand throws `std::invalid_argument` with the
/// message the CLI front end prints verbatim.  The bench adapter
/// (`bench/experiment/bench_cli.cpp`) only dispatches on the result — it
/// no longer hand-parses anything.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "common/telemetry.hpp"
#include "expt/experiment.hpp"

namespace aedbmls::expt {

/// How a campaign's cells are distributed.  At most one of the
/// non-`kLocal` modes may be selected per invocation.
enum class CampaignMode {
  kLocal,  ///< plain in-process run (no distribution flag)
  kShard,  ///< --shard=i/N: run (or resume) one shard's cell log, exit
  kMerge,  ///< --merge=DIR: reassemble shard cell logs, no execution
};

/// The validated campaign-wide options of one bench invocation.
struct CampaignOptions {
  CampaignMode mode = CampaignMode::kLocal;
  /// --workers=N, digits only: the driver's task count (0 = one per
  /// hardware thread).
  std::size_t workers = 0;

  // --shard=i/N + --shard-dir
  std::size_t shard_index = 0;
  std::size_t shard_count = 0;
  std::string shard_dir = "shards";
  // --merge
  std::string merge_dir;

  /// --cache-dir override; nullopt keeps the driver default.
  std::optional<std::string> cache_dir;
  /// False under --no-cache: neither replay nor write the campaign store
  /// (`ExperimentDriver::Options::use_cache`).
  bool use_cache = true;
  /// --progress[=N], N digits only and >= 1 (bare: every cell): print a
  /// progress line every N completed cells.
  bool progress = false;
  std::size_t progress_every = 1;
  /// --telemetry-out=FILE (empty: none).  Written durably — atomic
  /// tmp+rename with a `#crc32` trailer (see `write_telemetry_file`).
  std::string telemetry_out;
  /// --front-out=DIR (empty: none): also write the per-scenario reference
  /// fronts, canonically sorted, as `reference_<scale>_<fp>_<scenario>.csv`
  /// under DIR.  Needs the full record set, so it is rejected in --shard
  /// mode (partial results only).
  std::string front_out;
  /// --fault-plan=SPEC verbatim (empty: no plan).
  std::string fault_plan;
};

/// The campaign flags, derived from the tables `parse_campaign_options`
/// reads them with: a campaign bench's part of its declared flags
/// (`check_flags_or_exit`).
[[nodiscard]] const std::vector<std::string_view>& campaign_flags();

/// Parses + validates the campaign flags in one pass.  Throws
/// `std::invalid_argument` on any malformed operand and on conflicting
/// distribution modes (the message names the clashing pair).  Other flags
/// are the calling binary's to declare and check.
[[nodiscard]] CampaignOptions parse_campaign_options(const CliArgs& args);

/// Durably writes `snapshot` through the line codec to `path`: the bytes
/// carry a `#crc32` trailer and land via atomic tmp+fsync+rename, so a
/// crash mid-dump leaves either the previous file or the complete new one
/// — never a torn prefix.  Returns the number of instrument lines written;
/// throws `std::runtime_error` on I/O failure.
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
