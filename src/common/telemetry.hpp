#pragma once

/// Telemetry — named counters/gauges/histograms with associative merge.
///
/// A `Registry` is the write side: a simulation/experiment context
/// registers its instruments once (registration returns a stable handle;
/// updates are plain stores, no lookup on the hot path) and snapshots them
/// at a unit-of-work boundary.  A `Snapshot` is the read side: pure data,
/// keyed by instrument name, with a `merge()` that is associative and
/// commutative for every instrument kind:
///
///   counter    u64 sum                                   (exact)
///   gauge      observation count / sum / min / max       (count exact;
///              sum merged in caller-defined order — see below)
///   histogram  power-of-two buckets of u64 observations  (exact)
///
/// Exact-arithmetic fields make aggregation genuinely independent of how
/// the work was scheduled: merging per-cell snapshots yields the same
/// counters and buckets for any worker count, rank count or shard layout.
/// Gauge *sums* add IEEE doubles, so different merge orders may round
/// differently; every aggregation path in this codebase merges in grid
/// (cell-index) order, which makes even those byte-stable.
///
/// Snapshots serialise to the line-oriented ASCII format of the shard
/// manifests (`%.17g` doubles round-trip binary64 exactly); see
/// `encode_snapshot` / `decode_snapshot_line`.
///
/// `ProgressMeter` is the live view: a thread-safe fold of per-cell
/// snapshots that periodically prints cells-done/total, evaluation
/// throughput and per-scenario mean cell time to a stream (stderr by
/// default, so progress never lands in piped stdout or cached CSVs).

#include <array>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.hpp"

namespace aedbmls::telemetry {

/// Monotonic event count.  Merge: sum.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Summary of double-valued observations.  Merge: count/sum add, min/max
/// fold.  A gauge with `count == 0` carries no observations (min/max are
/// then meaningless placeholders and `mean()` is 0).
struct GaugeStat {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void observe(double value) noexcept {
    min = count == 0 ? value : (value < min ? value : min);
    max = count == 0 ? value : (value > max ? value : max);
    ++count;
    sum += value;
  }
  void merge(const GaugeStat& other) noexcept {
    if (other.count == 0) return;
    min = count == 0 ? other.min : (other.min < min ? other.min : min);
    max = count == 0 ? other.max : (other.max > max ? other.max : max);
    count += other.count;
    sum += other.sum;
  }
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  friend bool operator==(const GaugeStat&, const GaugeStat&) = default;
};

/// Power-of-two histogram of u64 observations: bucket b counts values with
/// bit width b, i.e. bucket 0 holds value 0, bucket b holds [2^(b-1), 2^b).
/// Exact under merge (bucket-wise u64 sums).
struct HistogramStat {
  static constexpr std::size_t kBuckets = 65;  ///< bit widths 0..64
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;

  void observe(std::uint64_t value) noexcept;
  void merge(const HistogramStat& other) noexcept;
  friend bool operator==(const HistogramStat&, const HistogramStat&) = default;
};

/// Point-in-time copy of a registry (or a merge of many).  Maps are
/// name-ordered, so iteration — and the encoded line sequence — is
/// deterministic regardless of registration order.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeStat> gauges;
  std::map<std::string, HistogramStat> histograms;

  /// Folds `other` in (see the header comment for the per-kind semantics).
  void merge(const Snapshot& other);

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

/// The write side: find-or-create instruments by name, update through the
/// returned handles (stable for the registry's lifetime), snapshot at unit
/// boundaries.  Not thread-safe; use one per context/thread and merge the
/// snapshots (that is the point).
class Registry {
 public:
  /// Handles are find-or-create: the same name always yields the same
  /// instrument, so re-registering on a pooled context re-arm is free.
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] GaugeStat& gauge(const std::string& name);
  [[nodiscard]] HistogramStat& histogram(const std::string& name);

  [[nodiscard]] Snapshot snapshot() const;

 private:
  // Deques: handle stability under growth without per-instrument
  // indirection.
  std::deque<std::pair<std::string, Counter>> counters_;
  std::deque<std::pair<std::string, GaugeStat>> gauges_;
  std::deque<std::pair<std::string, HistogramStat>> histograms_;
};

/// One `encode` line per instrument, in snapshot (name) order:
///
///   tcounter <name> <value>
///   tgauge <name> <count> <sum> <min> <max>
///   thist <name> <count> <pairs> <bucket>:<count> ...
///
/// Names must be whitespace-free (they are in this codebase; enforced by
/// the manifest codec's `checked_name`).  Doubles print as `%.17g`.
[[nodiscard]] std::vector<std::string> encode_snapshot(
    const Snapshot& snapshot);

/// Decodes one `encode_snapshot` line into `snapshot` (merging on name
/// collision).  Throws std::invalid_argument on anything malformed.
void decode_snapshot_line(const std::string& line, Snapshot& snapshot);

/// Thread-safe fold of per-cell snapshots with periodic printing: every
/// `every` completed cells (and on the final one) a single line with
/// cells-done/total, wall-clock evaluation throughput and per-scenario
/// mean cell seconds (from gauges named `scenario.<key>.wall_s`) goes to
/// `stream`.
class ProgressMeter {
 public:
  /// `every == 0` is clamped to 1.  `stream` defaults to stderr so the
  /// progress feed cannot corrupt stdout pipelines or cached CSV bytes.
  explicit ProgressMeter(std::size_t total_cells, std::size_t every = 1,
                         std::FILE* stream = stderr);

  /// Folds one completed cell's snapshot in; prints when due.
  void cell_done(const Snapshot& cell);

 private:
  void print_locked();

  std::mutex mutex_;
  Snapshot merged_;
  std::size_t done_ = 0;
  const std::size_t total_;
  const std::size_t every_;
  std::FILE* const stream_;
  const ElapsedTimer timer_;
};

}  // namespace aedbmls::telemetry
