/// Telemetry registry/snapshot semantics: instrument arithmetic, merge
/// associativity and commutativity (the property the cross-worker and
/// cross-rank aggregation contracts rest on), the line codec round-trip,
/// and the ProgressMeter feed.

#include "common/telemetry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "seeded_mutants.hpp"

namespace telemetry = aedbmls::telemetry;

namespace {

TEST(Counter, Adds) {
  telemetry::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(GaugeStat, TracksCountSumMinMax) {
  telemetry::GaugeStat gauge;
  gauge.observe(3.0);
  gauge.observe(-1.0);
  gauge.observe(2.5);
  EXPECT_EQ(gauge.count, 3u);
  EXPECT_DOUBLE_EQ(gauge.sum, 4.5);
  EXPECT_DOUBLE_EQ(gauge.min, -1.0);
  EXPECT_DOUBLE_EQ(gauge.max, 3.0);
  EXPECT_DOUBLE_EQ(gauge.mean(), 1.5);
}

TEST(GaugeStat, EmptyMergeIsIdentity) {
  telemetry::GaugeStat gauge;
  gauge.observe(7.0);
  const telemetry::GaugeStat before = gauge;
  gauge.merge(telemetry::GaugeStat{});
  EXPECT_EQ(gauge, before);

  // Merging into an empty gauge adopts the other side's min/max instead of
  // folding against the zero placeholders.
  telemetry::GaugeStat empty;
  empty.merge(before);
  EXPECT_EQ(empty, before);
}

TEST(GaugeStat, MergeMatchesDirectObservation) {
  telemetry::GaugeStat left;
  left.observe(5.0);
  left.observe(9.0);
  telemetry::GaugeStat right;
  right.observe(4.0);

  telemetry::GaugeStat merged = left;
  merged.merge(right);

  telemetry::GaugeStat direct;
  direct.observe(5.0);
  direct.observe(9.0);
  direct.observe(4.0);
  EXPECT_EQ(merged, direct);
}

TEST(HistogramStat, BucketsByBitWidth) {
  telemetry::HistogramStat hist;
  hist.observe(0);  // bucket 0
  hist.observe(1);  // bucket 1
  hist.observe(2);  // bucket 2: [2, 4)
  hist.observe(3);  // bucket 2
  hist.observe(4);  // bucket 3: [4, 8)
  hist.observe(std::numeric_limits<std::uint64_t>::max());  // bucket 64
  EXPECT_EQ(hist.count, 6u);
  EXPECT_EQ(hist.buckets[0], 1u);
  EXPECT_EQ(hist.buckets[1], 1u);
  EXPECT_EQ(hist.buckets[2], 2u);
  EXPECT_EQ(hist.buckets[3], 1u);
  EXPECT_EQ(hist.buckets[64], 1u);
}

TEST(HistogramStat, MergeIsExact) {
  telemetry::HistogramStat a;
  a.observe(1);
  a.observe(100);
  telemetry::HistogramStat b;
  b.observe(7);

  telemetry::HistogramStat merged = a;
  merged.merge(b);

  telemetry::HistogramStat direct;
  direct.observe(1);
  direct.observe(100);
  direct.observe(7);
  EXPECT_EQ(merged, direct);
}

TEST(Registry, HandlesAreFindOrCreate) {
  telemetry::Registry registry;
  telemetry::Counter& first = registry.counter("evals");
  first.add(3);
  telemetry::Counter& again = registry.counter("evals");
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(again.value(), 3u);

  telemetry::GaugeStat& gauge = registry.gauge("wall");
  gauge.observe(1.0);
  EXPECT_EQ(&gauge, &registry.gauge("wall"));
}

TEST(Registry, HandlesSurviveGrowth) {
  telemetry::Registry registry;
  telemetry::Counter& pinned = registry.counter("pinned");
  for (int i = 0; i < 100; ++i) {
    (void)registry.counter("c" + std::to_string(i));
  }
  pinned.add(9);
  EXPECT_EQ(registry.counter("pinned").value(), 9u);
}

TEST(Registry, Snapshot) {
  telemetry::Registry registry;
  registry.counter("cells").add(2);
  registry.gauge("wall").observe(0.5);
  registry.histogram("front").observe(8);

  const telemetry::Snapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counters.at("cells"), 2u);
  EXPECT_EQ(snapshot.gauges.at("wall").count, 1u);
  EXPECT_EQ(snapshot.histograms.at("front").count, 1u);
}

/// A deterministic little family of per-cell snapshots for the merge-law
/// tests, exercising disjoint and overlapping instrument names.
telemetry::Snapshot cell_snapshot(std::uint64_t i) {
  telemetry::Registry registry;
  registry.counter("cells").add(1);
  registry.counter("evaluations").add(10 + i);
  if (i % 2 == 0) registry.counter("even.cells").add(1);
  registry.gauge("wall").observe(0.25 * static_cast<double>(i + 1));
  registry.gauge("s" + std::to_string(i % 3) + ".wall")
      .observe(static_cast<double>(i));
  registry.histogram("front").observe(i * 7 + 1);
  return registry.snapshot();
}

telemetry::Snapshot merge_all(const std::vector<telemetry::Snapshot>& cells) {
  telemetry::Snapshot out;
  for (const auto& cell : cells) out.merge(cell);
  return out;
}

TEST(Snapshot, MergeIsAssociative) {
  const auto a = cell_snapshot(0);
  const auto b = cell_snapshot(1);
  const auto c = cell_snapshot(2);

  telemetry::Snapshot left_first = a;
  left_first.merge(b);
  left_first.merge(c);

  telemetry::Snapshot right_first = b;
  right_first.merge(c);
  telemetry::Snapshot folded = a;
  folded.merge(right_first);

  EXPECT_EQ(left_first, folded);
}

TEST(Snapshot, ExactFieldsAreCommutative) {
  // Counters and histogram buckets are u64 sums — any merge order agrees.
  // Gauge sums add doubles, so full snapshot equality across orders is not
  // promised in general; compare the exact parts.
  const auto a = cell_snapshot(3);
  const auto b = cell_snapshot(4);
  telemetry::Snapshot ab = a;
  ab.merge(b);
  telemetry::Snapshot ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.counters, ba.counters);
  EXPECT_EQ(ab.histograms, ba.histograms);
  for (const auto& [name, gauge] : ab.gauges) {
    const auto& other = ba.gauges.at(name);
    EXPECT_EQ(gauge.count, other.count);
    EXPECT_DOUBLE_EQ(gauge.min, other.min);
    EXPECT_DOUBLE_EQ(gauge.max, other.max);
  }
}

TEST(Snapshot, GridOrderFoldIsGroupingIndependent) {
  // The byte-stability contract: every aggregation path folds per-cell
  // snapshots in grid order, whatever the intermediate grouping — one flat
  // fold, per-worker partial folds, per-shard partial folds — and lands on
  // the identical snapshot, gauge sums included.
  std::vector<telemetry::Snapshot> cells;
  for (std::uint64_t i = 0; i < 12; ++i) cells.push_back(cell_snapshot(i));
  const telemetry::Snapshot flat = merge_all(cells);

  for (const std::size_t group : {std::size_t{2}, std::size_t{3},
                                  std::size_t{5}}) {
    telemetry::Snapshot grouped;
    for (std::size_t begin = 0; begin < cells.size(); begin += group) {
      telemetry::Snapshot partial;
      for (std::size_t i = begin; i < cells.size() && i < begin + group; ++i) {
        partial.merge(cells[i]);
      }
      grouped.merge(partial);
    }
    EXPECT_EQ(grouped, flat) << "group size " << group;
  }
}

TEST(Snapshot, MergeWithEmptyIsIdentity) {
  const auto cell = cell_snapshot(5);
  telemetry::Snapshot left = cell;
  left.merge(telemetry::Snapshot{});
  EXPECT_EQ(left, cell);
  telemetry::Snapshot right;
  right.merge(cell);
  EXPECT_EQ(right, cell);
}

TEST(Codec, RoundTripsExactly) {
  telemetry::Registry registry;
  registry.counter("cells").add(7);
  registry.counter("sim.events").add(123456789012345ULL);
  registry.gauge("cell.wall_s").observe(0.1);  // 0.1 is inexact in binary64
  registry.gauge("cell.wall_s").observe(3.25);
  registry.gauge("scenario.d100.wall_s").observe(1e-9);
  registry.histogram("front.size").observe(0);
  registry.histogram("front.size").observe(97);
  const telemetry::Snapshot original = registry.snapshot();

  telemetry::Snapshot decoded;
  for (const std::string& line : telemetry::encode_snapshot(original)) {
    telemetry::decode_snapshot_line(line, decoded);
  }
  EXPECT_EQ(decoded, original);
}

TEST(Codec, EncodedLineOrderIsDeterministic) {
  // Snapshot maps are name-ordered, so two registries with different
  // registration orders encode identical line sequences.
  telemetry::Registry forward;
  forward.counter("a").add(1);
  forward.counter("b").add(2);
  telemetry::Registry backward;
  backward.counter("b").add(2);
  backward.counter("a").add(1);
  EXPECT_EQ(telemetry::encode_snapshot(forward.snapshot()),
            telemetry::encode_snapshot(backward.snapshot()));
}

TEST(Codec, DecodeMergesOnNameCollision) {
  telemetry::Snapshot snapshot;
  telemetry::decode_snapshot_line("tcounter cells 3", snapshot);
  telemetry::decode_snapshot_line("tcounter cells 4", snapshot);
  EXPECT_EQ(snapshot.counters.at("cells"), 7u);
}

TEST(Codec, RejectsMalformedLines) {
  telemetry::Snapshot snapshot;
  EXPECT_THROW(telemetry::decode_snapshot_line("tcounter", snapshot),
               std::invalid_argument);
  EXPECT_THROW(telemetry::decode_snapshot_line("tcounter cells", snapshot),
               std::invalid_argument);
  EXPECT_THROW(
      telemetry::decode_snapshot_line("tcounter cells notanumber", snapshot),
      std::invalid_argument);
  EXPECT_THROW(telemetry::decode_snapshot_line("tgauge wall 1 2.0", snapshot),
               std::invalid_argument);
  // Histogram whose bucket counts do not add up to its count.
  EXPECT_THROW(
      telemetry::decode_snapshot_line("thist front 5 1 3:2", snapshot),
      std::invalid_argument);
  EXPECT_THROW(telemetry::decode_snapshot_line("tunknown x 1", snapshot),
               std::invalid_argument);
  // Signed counts must not wrap to 2^64 - n (a `--cost-priors` file with
  // the gauge line would otherwise set a d100 prior of 8e-20 s).
  for (const char* line : {"tcounter cells -1", "tcounter cells +1",
                           "tgauge scenario.d100.wall_s -2 1.5 1 2",
                           "thist front.size -1 1 1:-1"}) {
    EXPECT_THROW(telemetry::decode_snapshot_line(line, snapshot),
                 std::invalid_argument)
        << line;
  }
  // Buckets whose running total wraps back around to the count.
  EXPECT_THROW(telemetry::decode_snapshot_line(
                   "thist front.size 0 2 1:18446744073709551615 2:1", snapshot),
               std::invalid_argument);
}

TEST(Codec, SeededMutantsDecodeOrThrowInvalidArgument) {
  // Seeded mutation harness (the cell log's pattern): every encoded line
  // cut at every byte, seeded byte flips, seeded splices of the other
  // lines.  A mutant either throws std::invalid_argument or decodes to a
  // snapshot whose histograms add up, and which — when every value is
  // finite — re-encodes and decodes to itself.
  telemetry::Registry registry;
  registry.counter("cells").add(7);
  registry.counter("sim.events").add(123456789012345ULL);
  registry.gauge("scenario.d100.wall_s").observe(0.1);
  registry.gauge("scenario.d100.wall_s").observe(3.25);
  registry.histogram("front.size").observe(0);
  registry.histogram("front.size").observe(97);
  registry.histogram("front.size").observe(std::uint64_t{1} << 40);
  const auto lines = telemetry::encode_snapshot(registry.snapshot());
  std::string donor;
  for (const std::string& line : lines) donor += line + '\n';
  aedbmls::Xoshiro256 rng(20261017);

  std::size_t checked = 0;
  std::size_t decoded = 0;
  auto check = [&](const std::string& mutant) {
    ++checked;
    telemetry::Snapshot got;
    try {
      telemetry::decode_snapshot_line(mutant, got);
    } catch (const std::invalid_argument&) {
      return;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "decode threw " << error.what() << " for '" << mutant
                    << "'";
      return;
    }
    ++decoded;
    for (const auto& [name, stat] : got.histograms) {
      std::uint64_t total = 0;
      for (const std::uint64_t bucket : stat.buckets) {
        ASSERT_LE(bucket, stat.count - total) << mutant;
        total += bucket;
      }
      ASSERT_EQ(total, stat.count) << mutant;
    }
    for (const auto& [name, stat] : got.gauges) {
      if (!std::isfinite(stat.sum) || !std::isfinite(stat.min) ||
          !std::isfinite(stat.max)) {
        return;
      }
    }
    telemetry::Snapshot again;
    for (const std::string& line : telemetry::encode_snapshot(got)) {
      telemetry::decode_snapshot_line(line, again);
    }
    ASSERT_EQ(again, got) << mutant;
  };

  for (const std::string& line : lines) {
    for (std::size_t cut = 0; cut <= line.size(); ++cut) {
      check(line.substr(0, cut));
    }
  }
  for (int trial = 0; trial < 3000 && !HasFatalFailure(); ++trial) {
    const std::string& line = lines[rng.uniform_int(lines.size())];
    check(aedbmls::mutants::flip(line, rng));
    check(aedbmls::mutants::splice(line, donor, rng));
  }
  EXPECT_GT(checked, 6000u);
  EXPECT_GT(decoded, 100u);
}

TEST(ProgressMeter, PrintsEveryNthCellAndTheLast) {
  std::FILE* stream = std::tmpfile();
  ASSERT_NE(stream, nullptr);
  {
    telemetry::ProgressMeter meter(5, 2, stream);
    for (std::uint64_t i = 0; i < 5; ++i) meter.cell_done(cell_snapshot(i));
  }
  std::rewind(stream);
  std::vector<std::string> lines;
  char buffer[512];
  while (std::fgets(buffer, sizeof buffer, stream) != nullptr) {
    lines.emplace_back(buffer);
  }
  std::fclose(stream);
  // Cells 2 and 4 are due by cadence; cell 5 is the final one.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines.front().find("2/5"), std::string::npos) << lines.front();
  EXPECT_NE(lines.back().find("5/5"), std::string::npos) << lines.back();
}

TEST(ProgressMeter, ReportsThroughputAndScenarioMeans) {
  std::FILE* stream = std::tmpfile();
  ASSERT_NE(stream, nullptr);
  {
    telemetry::ProgressMeter meter(2, 1, stream);
    for (const double wall_s : {2.0, 4.0}) {
      telemetry::Registry registry;
      registry.counter("evaluations").add(100);
      registry.gauge("scenario.d100.wall_s").observe(wall_s);
      meter.cell_done(registry.snapshot());
    }
  }
  std::rewind(stream);
  std::string text;
  char buffer[512];
  while (std::fgets(buffer, sizeof buffer, stream) != nullptr) text += buffer;
  std::fclose(stream);
  EXPECT_NE(text.find("evals/s"), std::string::npos) << text;
  // Mean of the scenario.d100.wall_s gauge over both cells: (2 + 4) / 2.
  EXPECT_NE(text.find("d100 3.00 s/cell"), std::string::npos) << text;
}

}  // namespace
