/// Shard manifests: the strided cell partition, the v2 codec (bitwise
/// round trips, rejection of malformed input), and `--merge` — a 2- or
/// 3-way shard/merge round trip reproduces the single-driver indicator
/// samples, CSV bytes, reference fronts and exact telemetry, while
/// foreign, missing and duplicate shards are refused.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/durable_file.hpp"
#include "expt/experiment.hpp"
#include "expt/manifest.hpp"
#include "moo/core/front_io.hpp"

namespace aedbmls::expt {
namespace {

Scale tiny_scale() {
  Scale scale;
  scale.networks = 1;
  scale.runs = 2;
  scale.evals = 24;
  scale.seed = 4242;
  scale.scenarios = {"d100", "static-grid"};
  return scale;
}

/// Two cheap contenders.
ExperimentPlan tiny_plan() {
  return ExperimentPlan::of({"NSGAII", "Random"}, tiny_scale());
}

ExperimentDriver::Options quiet(std::size_t workers) {
  ExperimentDriver::Options options;
  options.workers = workers;
  options.use_cache = false;
  options.verbose = false;
  return options;
}

void expect_identical(const std::vector<IndicatorSample>& a,
                      const std::vector<IndicatorSample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].algorithm, b[i].algorithm) << i;
    EXPECT_EQ(a[i].scenario, b[i].scenario) << i;
    EXPECT_EQ(a[i].run_seed, b[i].run_seed) << i;
    EXPECT_EQ(a[i].front_size, b[i].front_size) << i;
    // Bitwise, not approximate: distribution must not change results.
    EXPECT_EQ(a[i].hypervolume, b[i].hypervolume) << i;
    EXPECT_EQ(a[i].igd, b[i].igd) << i;
    EXPECT_EQ(a[i].spread, b[i].spread) << i;
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A fresh per-test scratch directory (gtest TempDir is per-run).
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "aedbmls_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Runs every cell of `plan` sharded `count` ways via run_cells and
/// returns the written manifests' directory.
std::string write_shards(const ExperimentPlan& plan, std::size_t count,
                         const std::string& dir) {
  for (std::size_t index = 0; index < count; ++index) {
    const auto cells = cells_for_shard(plan, index, count);
    auto records = ExperimentDriver(quiet(2)).run_cells(plan, cells);
    std::vector<CellResult> results;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      results.push_back(CellResult{cells[i].index, std::move(records[i])});
    }
    write_manifest(dir, make_manifest(plan, index, count, std::move(results)));
  }
  return dir;
}

TEST(CellsForShard, StridedPartitionIsExactAndDeterministic) {
  const ExperimentPlan plan = tiny_plan();
  const auto cells = plan.cells();
  for (const std::size_t count : {1u, 2u, 3u, 4u, 5u}) {
    std::vector<bool> seen(cells.size(), false);
    for (std::size_t index = 0; index < count; ++index) {
      const auto shard = cells_for_shard(plan, index, count);
      // Balanced to within one cell.
      EXPECT_LE(shard.size(), cells.size() / count + 1);
      for (const auto& cell : shard) {
        EXPECT_EQ(cell.index % count, index);  // strided assignment
        EXPECT_FALSE(seen[cell.index]);
        seen[cell.index] = true;
        // The shard cell is the plan cell, verbatim.
        EXPECT_EQ(cell.algorithm, cells[cell.index].algorithm);
        EXPECT_EQ(cell.scenario, cells[cell.index].scenario);
        EXPECT_EQ(cell.seed, cells[cell.index].seed);
      }
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_TRUE(seen[i]) << "cell " << i << " unassigned at " << count
                           << " shards";
    }
  }
}

TEST(CellsForShard, RejectsInvalidShardCoordinates) {
  const ExperimentPlan plan = tiny_plan();
  EXPECT_THROW((void)cells_for_shard(plan, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)cells_for_shard(plan, 3, 3), std::invalid_argument);
}

TEST(ShardManifest, EncodeDecodeRoundTripsBitwise) {
  const ExperimentPlan plan = tiny_plan();
  ShardManifest manifest;
  manifest.fingerprint = plan.fingerprint();
  manifest.scale_name = plan.scale.name;
  manifest.shard_index = 1;
  manifest.shard_count = 3;
  manifest.total_cells = plan.cell_count();
  CellResult result;
  result.index = 4;
  result.record.algorithm = "NSGAII";
  result.record.scenario = "static-grid";
  result.record.run_seed = 0xDEADBEEFCAFEF00Dull;
  result.record.evaluations = 24;
  result.record.wall_seconds = 0.12345678901234567;
  // Doubles chosen to break lossy printf round trips: negative zero,
  // subnormals, and adjacent representable values.
  moo::Solution tricky;
  tricky.objectives = {-0.0, 5e-324, std::nextafter(1.0, 2.0)};
  tricky.x = {0.1, -1.0 / 3.0, 1e308, std::nextafter(0.5, 0.0), 42.0};
  tricky.constraint_violation = 1.0000000000000002;
  tricky.evaluated = true;
  result.record.front = {tricky, tricky};
  // Telemetry rides the v2 cell block; 0.1 is inexact in binary64, so a
  // lossy double round trip would show up here.
  telemetry::Registry registry;
  registry.counter("evaluations").add(24);
  registry.gauge("cell.wall_s").observe(0.1);
  registry.histogram("front.size").observe(2);
  result.record.telemetry = registry.snapshot();
  manifest.results.push_back(result);

  const ShardManifest decoded = decode_manifest(encode_manifest(manifest));
  EXPECT_EQ(decoded.fingerprint, manifest.fingerprint);
  EXPECT_EQ(decoded.scale_name, manifest.scale_name);
  EXPECT_EQ(decoded.shard_index, manifest.shard_index);
  EXPECT_EQ(decoded.shard_count, manifest.shard_count);
  EXPECT_EQ(decoded.total_cells, manifest.total_cells);
  ASSERT_EQ(decoded.results.size(), 1u);
  const RunRecord& record = decoded.results[0].record;
  EXPECT_EQ(decoded.results[0].index, 4u);
  EXPECT_EQ(record.algorithm, "NSGAII");
  EXPECT_EQ(record.scenario, "static-grid");
  EXPECT_EQ(record.run_seed, result.record.run_seed);
  EXPECT_EQ(record.evaluations, 24u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(record.wall_seconds),
            std::bit_cast<std::uint64_t>(result.record.wall_seconds));
  ASSERT_EQ(record.front.size(), 2u);
  for (const moo::Solution& solution : record.front) {
    ASSERT_EQ(solution.objectives.size(), tricky.objectives.size());
    for (std::size_t i = 0; i < tricky.objectives.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(solution.objectives[i]),
                std::bit_cast<std::uint64_t>(tricky.objectives[i]))
          << "objective " << i;
    }
    ASSERT_EQ(solution.x.size(), tricky.x.size());
    for (std::size_t i = 0; i < tricky.x.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(solution.x[i]),
                std::bit_cast<std::uint64_t>(tricky.x[i]))
          << "variable " << i;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(solution.constraint_violation),
              std::bit_cast<std::uint64_t>(tricky.constraint_violation));
  }
  EXPECT_EQ(record.telemetry, result.record.telemetry);
}

TEST(ShardManifest, DecodeRejectsMalformedInput) {
  const ExperimentPlan plan = tiny_plan();
  const ShardManifest manifest = make_manifest(plan, 0, 2, {});
  const std::string good = encode_manifest(manifest);

  EXPECT_THROW((void)decode_manifest(""), std::invalid_argument);
  EXPECT_THROW((void)decode_manifest("not a manifest\n"),
               std::invalid_argument);
  // Truncation anywhere must be caught, not silently accepted.
  EXPECT_THROW((void)decode_manifest(good.substr(0, good.size() - 5)),
               std::invalid_argument);
  std::string tampered = good;
  const auto pos = tampered.find("shard 0 2");
  tampered.replace(pos, 9, "shard 2 2");  // index out of range
  EXPECT_THROW((void)decode_manifest(tampered), std::invalid_argument);
  // Only format v2 decodes: a v1 header (the pre-telemetry format, whose
  // cell lines lack the telemetry count) is refused.
  std::string v1 = good;
  v1.replace(0, v1.find('\n'), "aedbmls-shard-manifest v1");
  EXPECT_THROW((void)decode_manifest(v1), std::invalid_argument);
}

TEST(ShardManifest, MergeReconstructsTheUnshardedCampaignBitwise) {
  const ExperimentPlan plan = tiny_plan();
  auto full_options = quiet(2);
  full_options.collect_records = true;
  const auto full = ExperimentDriver(full_options).run(plan);

  const std::string shard_dir = scratch_dir("shards");
  write_shards(plan, 3, shard_dir);

  auto merge_options = quiet(1);
  merge_options.cache_dir = scratch_dir("merged");
  merge_options.collect_records = true;
  const auto merged = merge_campaign(plan, shard_dir, merge_options);

  expect_identical(full.samples, merged.samples);
  ASSERT_EQ(merged.records.size(), full.records.size());

  // The artifacts CI diffs: the CSV bytes equal the unsharded cache store
  // (CRC trailer included), and each reference front file equals the one
  // the full records imply.
  EXPECT_EQ(slurp(indicator_csv_path(merge_options.cache_dir, plan)),
            io::with_crc_trailer(indicator_csv(full.samples)));
  for (const std::string& scenario : plan.scenarios) {
    std::ostringstream path;
    path << merge_options.cache_dir << "/reference_" << plan.scale.name << "_"
         << std::hex << plan.fingerprint() << std::dec << "_" << scenario
         << ".csv";
    EXPECT_EQ(slurp(path.str()),
              moo::front_to_csv(reference_front(full.records, scenario)))
        << scenario;
  }
}

TEST(ShardManifest, MergedTelemetryIsShardLayoutInvariant) {
  // Per-cell telemetry rides the manifests; merge_campaign folds it in
  // grid order, so the exact instruments agree across shard layouts and
  // with the unsharded driver run.
  const ExperimentPlan plan = tiny_plan();
  const auto full = ExperimentDriver(quiet(2)).run(plan);
  ASSERT_FALSE(full.telemetry.empty());

  for (const std::size_t count : {std::size_t{2}, std::size_t{3}}) {
    const std::string shard_dir =
        scratch_dir("telemetry_shards_" + std::to_string(count));
    write_shards(plan, count, shard_dir);
    auto merge_options = quiet(1);
    merge_options.cache_dir = scratch_dir("telemetry_merged_" +
                                          std::to_string(count));
    const auto merged = merge_campaign(plan, shard_dir, merge_options);
    EXPECT_EQ(merged.telemetry.counters, full.telemetry.counters)
        << count << " shards";
    EXPECT_EQ(merged.telemetry.histograms, full.telemetry.histograms)
        << count << " shards";
    ASSERT_EQ(merged.telemetry.gauges.size(), full.telemetry.gauges.size());
    for (const auto& [name, gauge] : full.telemetry.gauges) {
      EXPECT_EQ(merged.telemetry.gauges.at(name).count, gauge.count) << name;
    }
  }
}

TEST(ShardManifest, MergeRejectsForeignMissingAndDuplicateShards) {
  const ExperimentPlan plan = tiny_plan();
  const std::string shard_dir = scratch_dir("reject_shards");
  write_shards(plan, 2, shard_dir);
  auto manifests = load_manifests(shard_dir);
  ASSERT_EQ(manifests.size(), 2u);

  // Wrong fingerprint: the shard was run against a different plan.
  {
    auto tampered = manifests;
    tampered[0].fingerprint += 1;
    EXPECT_THROW((void)merge_manifests(plan, tampered),
                 std::invalid_argument);
  }
  // Equivalently, merging into a reseeded plan must refuse.
  {
    ExperimentPlan reseeded = plan;
    reseeded.scale.seed += 1;
    EXPECT_THROW((void)merge_manifests(reseeded, manifests),
                 std::invalid_argument);
  }
  // A missing shard leaves holes.
  EXPECT_THROW((void)merge_manifests(plan, {manifests[0]}),
               std::invalid_argument);
  // The same shard twice double-covers its cells.
  EXPECT_THROW((void)merge_manifests(plan, {manifests[0], manifests[0],
                                            manifests[1]}),
               std::invalid_argument);
  // The untampered pair still merges.
  const auto records = merge_manifests(plan, manifests);
  EXPECT_EQ(records.size(), plan.cell_count());
}

}  // namespace
}  // namespace aedbmls::expt
