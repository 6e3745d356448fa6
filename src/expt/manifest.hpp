#pragma once

/// Cell logs — the one file format for completed grid cells, and the
/// campaign's only read-back store.
///
/// Every file a campaign reads back is a cell log, opened by its executor
/// through one `CampaignStore` (replay the verified prefix, repair a
/// damaged file, append each cell as it completes, rewrite it whole only
/// when the run computed cells):
///   - the campaign store `cell_store_path(cache_dir, plan)` is the cache
///     and the crash-resume journal of `ExperimentDriver::run`;
///   - `--shard=i/N` (`ExperimentDriver::run_shard`) keeps the cells of
///     `cells_for_shard(plan, i, N)` in
///     `shard_log_path(shard_dir, plan, i, N)`, and `--merge=DIR` reads
///     every shard file of the plan under DIR back into the exact record
///     set of the unsharded run.
/// All of them go through one writer (`write_cell_log`) and one reader
/// (`read_cell_log`); the indicator CSV is write-only output.
///
/// Line-oriented ASCII.  Doubles are printed with `%.17g`, which
/// round-trips IEEE-754 binary64 exactly, so decoded fronts and telemetry
/// are bitwise equal to the originals:
///
///   aedbmls-cell-log v1 <fingerprint hex> <total cells in the plan>
///   cell <index> <seed> <evaluations> <front_size> <wall_seconds>
///        <algorithm> <scenario> <telemetry_lines>    (one line)
///   tcounter|tgauge|thist ...                        (telemetry_lines lines,
///                                                     common/telemetry.hpp)
///   point <n_obj> <n_x> <cv> <f...> <x...>           (front_size lines)
///   crc <crc32 of the record's lines above, 8 hex>
///   cell ...                                         (next record)
///
/// A record counts only once its `crc` line verifies, so a file cut at any
/// byte offset reads as a clean prefix of whole records.

#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "expt/experiment.hpp"

namespace aedbmls::expt {

/// One completed grid cell tagged with its plan index — the unit cell logs
/// store.
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

/// Serialises one cell result as a cell block — the `cell` line followed
/// by its telemetry and `point` lines; a cell-log record is this block
/// plus its `crc` line.  Decoding it back yields a bitwise-identical
/// record (`%.17g` doubles).
[[nodiscard]] std::string encode_cell_result(const CellResult& result);

/// Parses one cell block produced by `encode_cell_result`.  `total_cells`
/// bounds the cell index (pass `plan.cell_count()`).  Throws
/// std::invalid_argument — and nothing else — on anything malformed,
/// truncated, or trailing.
[[nodiscard]] CellResult decode_cell_result(const std::string& text,
                                            std::size_t total_cells);

/// Throws std::invalid_argument unless `result` is one of `cells` (the
/// plan's cell table): index in range, and algorithm, scenario and seed
/// equal to that cell's.
void check_cell(const CellResult& result,
                const std::vector<ExperimentPlan::Cell>& cells);

/// The cell-log header line for `plan`, newline included.
[[nodiscard]] std::string cell_log_header(const ExperimentPlan& plan);

/// One cell-log record: `encode_cell_result(result)` plus its `crc` line.
[[nodiscard]] std::string cell_log_record(const CellResult& result);

/// What `read_cell_log` recovered from a file.
struct CellLog {
  /// The verified prefix: whole records whose CRC holds, that decode, that
  /// pass `check_cell` and that repeat no earlier cell — in file order.
  std::vector<CellResult> results;
  /// The first defect after that prefix (another plan's or a malformed
  /// header, a torn or CRC-failing record, a record that fails to decode,
  /// contradicts the plan or repeats a cell); empty when the text is
  /// exactly the header plus whole records.
  std::string defect;
};

/// Reads a cell log written for `plan`.  Never throws on bad bytes: damage
/// ends the verified prefix and is described in `CellLog::defect`.
[[nodiscard]] CellLog read_cell_log(const std::string& text,
                                    const ExperimentPlan& plan);

/// Writes `results` as one cell log at `path`, atomically (tmp + fsync +
/// rename), creating the parent directory on demand — every store's
/// repair and final rewrite, and `--merge`'s campaign store, go through
/// here.  Throws std::runtime_error naming the path on I/O failure.
void write_cell_log(const std::string& path, const ExperimentPlan& plan,
                    const std::vector<CellResult>& results);

/// `<dir>/cells_<scale>_<fp hex>.log` — the campaign store for `plan`.
[[nodiscard]] std::string cell_store_path(const std::string& dir,
                                          const ExperimentPlan& plan);

/// `<dir>/shard_<scale>_<fp hex>_<i>_of_<N>.manifest` — the cell log of
/// shard `shard_index` of `shard_count` of `plan`.  Named for the plan like
/// the store, so shards of several plans can share one directory.
[[nodiscard]] std::string shard_log_path(const std::string& dir,
                                         const ExperimentPlan& plan,
                                         std::size_t shard_index,
                                         std::size_t shard_count);

/// One run's handle on a cell log of `plan` — the campaign store of
/// `ExperimentDriver::run` or the shard file of `run_shard`.
class CampaignStore {
 public:
  /// Replays the verified prefix of the cell log at `path` — a defect
  /// (torn tail, flipped byte, another plan's header, ...) is logged as a
  /// warning and the rest recomputes — rewrites the file to exactly that
  /// prefix when it is missing or damaged (atomically, `write_cell_log`),
  /// and opens it for append.  A whole, clean file is not written.  When
  /// the `io.cache.write_fail` fault site fires the run writes nothing to
  /// the file: no repair, no append, and `writable()` is false.  Throws
  /// std::runtime_error when the repair cannot be written.
  CampaignStore(std::string path, const ExperimentPlan& plan);

  /// The verified prefix, in file order (the caller may move from it).
  [[nodiscard]] std::vector<CellResult>& replayed() noexcept {
    return replayed_;
  }

  /// Appends `cell` as one record and flushes it, so a killed run keeps
  /// every completed cell.  Thread-safe.  A failed append — or the
  /// `io.journal.torn_tail` fault site, which persists half the record —
  /// stops appending for this run; the final rewrite repairs the file.
  void append(const CellResult& cell);

  /// False when this run must leave the store as it found it.
  [[nodiscard]] bool writable() const noexcept { return writable_; }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::vector<CellResult> replayed_;
  bool writable_ = true;
  std::mutex mutex_;                       ///< guards journal_
  std::unique_ptr<std::ostream> journal_;  ///< null: not appending
};

/// The end of both full-campaign executors (`ExperimentDriver::run`,
/// `merge_campaign`): reduces `records` — every cell of `plan`, in grid
/// order — to indicator samples, folds their telemetry and, unless
/// `csv_dir` is empty, writes the indicator CSV (`indicator_csv_path`,
/// with its `#crc32` trailer) under it when that file is missing or its
/// bytes differ, so a cache hit writes nothing.  Returns the samples, the
/// telemetry and the records.  Throws std::runtime_error when the CSV
/// cannot be written.
[[nodiscard]] ExperimentResult finish_campaign(const ExperimentPlan& plan,
                                               std::vector<RunRecord> records,
                                               const std::string& csv_dir);

/// The whole `--merge` mode: reads every `*.manifest` regular file under
/// `manifest_dir` named for `plan` (`shard_log_path`'s prefix; in filename
/// order), reassembles the grid, writes it as
/// the campaign store under `cache_dir` (so a later run there is a cache
/// hit) and finishes it into `cache_dir` (`finish_campaign`: the indicator
/// CSV CI diffs against an unsharded run).  Throws std::invalid_argument
/// naming the file on any defect, on a cell that two files hold, on
/// missing cells, and when the directory holds no shard of the plan.
[[nodiscard]] ExperimentResult merge_campaign(const ExperimentPlan& plan,
                                              const std::string& manifest_dir,
                                              const std::string& cache_dir);

}  // namespace aedbmls::expt
