#pragma once

/// Shard manifests — one campaign split across processes or machines.
///
/// `--shard=i/N` runs `cells_for_shard(plan, i, N)` on one machine/CI job
/// and serialises the resulting cell records into one self-describing text
/// file; `--merge=DIR` decodes every `*.manifest` under DIR, validates it
/// against the plan (fingerprint, total cell count, per-cell metadata, no
/// missing or duplicate cells) and reassembles the exact record set of the
/// unsharded run — the reduced indicator CSV is byte-for-byte identical to
/// the one `ExperimentDriver` writes.
///
/// Format v2, line-oriented ASCII.  Doubles are printed with `%.17g`, which
/// round-trips IEEE-754 binary64 exactly, so decoded fronts are bitwise
/// equal to the originals:
///
///   aedbmls-shard-manifest v2
///   fingerprint <hex>
///   scale <name>
///   shard <i> <N>
///   cells <total cells in the plan>
///   cell <index> <seed> <evaluations> <front_size> <wall_seconds>
///        <algorithm> <scenario> <telemetry_lines>    (one line)
///   tcounter|tgauge|thist ...                        (telemetry_lines lines,
///                                                     common/telemetry.hpp)
///   point <n_obj> <n_x> <cv> <f...> <x...>           (front_size lines)
///   ...
///   end

#include <cstdint>
#include <string>
#include <vector>

#include "expt/experiment.hpp"

namespace aedbmls::expt {

/// One completed grid cell tagged with its plan index — the unit shard
/// manifests store and the elastic campaign service ships and journals.
struct CellResult {
  std::size_t index = 0;
  RunRecord record;
};

/// The cells of shard `shard_index` of `shard_count`: a strided partition
/// (cell i belongs to shard i % shard_count), so every shard receives a
/// representative mix of scenarios and algorithms instead of a contiguous
/// scenario block.  Deterministic, and the union over all shards is
/// exactly `plan.cells()`.  Throws std::invalid_argument when
/// `shard_count == 0` or `shard_index >= shard_count`.
[[nodiscard]] std::vector<ExperimentPlan::Cell> cells_for_shard(
    const ExperimentPlan& plan, std::size_t shard_index,
    std::size_t shard_count);

/// One shard's partial campaign results plus everything needed to check it
/// belongs: the plan fingerprint, the shard coordinates and the plan size.
struct ShardManifest {
  std::uint64_t fingerprint = 0;
  std::string scale_name;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::size_t total_cells = 0;
  std::vector<CellResult> results;
};

/// Manifest for shard `shard_index` of `shard_count` of `plan`, stamped
/// with the plan's fingerprint and cell count.
[[nodiscard]] ShardManifest make_manifest(const ExperimentPlan& plan,
                                          std::size_t shard_index,
                                          std::size_t shard_count,
                                          std::vector<CellResult> results);

/// Serialises the manifest (format v2 above).
[[nodiscard]] std::string encode_manifest(const ShardManifest& manifest);

/// Serialises one cell result as a self-contained v2 cell block — the
/// `cell` header line followed by its telemetry and `point` lines, exactly
/// as it appears inside a manifest.  This is the unit the elastic campaign
/// service ships over the wire (`result` messages) and appends to its
/// crash-resume journal; decoding it back yields a bitwise-identical
/// record (`%.17g` doubles).
[[nodiscard]] std::string encode_cell_result(const CellResult& result);

/// Parses one cell block produced by `encode_cell_result`.  `total_cells`
/// bounds the cell index (pass `plan.cell_count()`).  Throws
/// std::invalid_argument on anything malformed, truncated, or trailing.
[[nodiscard]] CellResult decode_cell_result(const std::string& text,
                                            std::size_t total_cells);

/// Parses a manifest in format v2.  Throws std::invalid_argument with a
/// line-level description on anything malformed or truncated (including a
/// header of any other format version).
[[nodiscard]] ShardManifest decode_manifest(const std::string& text);

/// Canonical file name: `shard_<i>_of_<N>.manifest`.
[[nodiscard]] std::string manifest_filename(std::size_t shard_index,
                                            std::size_t shard_count);

/// Writes the manifest under `dir` (created on demand) at its canonical
/// name; returns the path.  Throws std::runtime_error when unwritable.
std::string write_manifest(const std::string& dir,
                           const ShardManifest& manifest);

/// Decodes every `*.manifest` regular file under `dir`, in filename order.
/// Throws std::invalid_argument when the directory holds none (or does not
/// exist); decode errors are rethrown tagged with the offending path.
[[nodiscard]] std::vector<ShardManifest> load_manifests(
    const std::string& dir);

/// Validates the manifests against `plan` and reassembles the full
/// grid-ordered record vector.  Rejects with std::invalid_argument:
/// fingerprint or cell-count mismatches (the manifest was built from a
/// different plan), out-of-range or duplicate cell indices (overlapping
/// shards), missing cells (a shard was not merged), and per-cell metadata
/// contradicting the plan's cell table.
[[nodiscard]] std::vector<RunRecord> merge_manifests(
    const ExperimentPlan& plan, const std::vector<ShardManifest>& manifests);

/// The whole `--merge` mode: load + validate + reassemble + reduce.
/// Always writes the canonical indicator CSV to
/// `indicator_csv_path(options.cache_dir, plan)` and the per-scenario
/// reference fronts to `<cache_dir>/reference_<scale>_<fp>_<scenario>.csv`
/// — the artifacts CI diffs against an unsharded run.  Records are
/// populated iff `options.collect_records`.
[[nodiscard]] ExperimentResult merge_campaign(
    const ExperimentPlan& plan, const std::string& manifest_dir,
    const ExperimentDriver::Options& options);

}  // namespace aedbmls::expt
