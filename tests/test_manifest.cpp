/// Cell logs: the strided cell partition, the cell-block codec and its
/// decoder contract (bitwise round trips; adversarial counts and seeded
/// truncation / bit-flip / splice mutants either decode or throw
/// std::invalid_argument), `read_cell_log` (the verified prefix plus the
/// first defect, never a throw), and `--merge` — a 2- or 3-way shard/merge
/// round trip reproduces the single-driver indicator samples, CSV bytes,
/// reference fronts and exact telemetry and leaves a campaign store a
/// later driver run hits, while foreign, damaged, missing and duplicate
/// shards are refused by name.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/durable_file.hpp"
#include "common/rng.hpp"
#include "expt/campaign_options.hpp"
#include "expt/experiment.hpp"
#include "expt/manifest.hpp"
#include "seeded_mutants.hpp"

namespace aedbmls::expt {
namespace {

namespace fs = std::filesystem;

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

ExperimentPlan reseeded(const ExperimentPlan& plan) {
  ExperimentPlan other = plan;
  other.scale.seed += 1;
  return other;
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
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << bytes;
}

/// A fresh per-test scratch directory (gtest TempDir is per-run).
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "aedbmls_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Runs every cell of `plan` sharded `count` ways via run_cells and writes
/// each shard's cell log under `dir` the way `--shard=i/N` does.
void write_shards(const ExperimentPlan& plan, std::size_t count,
                  const std::string& dir) {
  for (std::size_t index = 0; index < count; ++index) {
    const auto cells = cells_for_shard(plan, index, count);
    auto records = ExperimentDriver(quiet(2)).run_cells(plan, cells);
    std::vector<CellResult> results;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      results.push_back(CellResult{cells[i].index, std::move(records[i])});
    }
    write_cell_log(dir + "/shard_" + std::to_string(index) + "_of_" +
                       std::to_string(count) + ".manifest",
                   plan, results);
  }
}

/// A cell result matching `cell`'s plan metadata, with a seeded random
/// front and telemetry — log material without running a simulation.
CellResult fabricate(const ExperimentPlan::Cell& cell, Xoshiro256& rng) {
  CellResult result;
  result.index = cell.index;
  result.record.algorithm = cell.algorithm;
  result.record.scenario = cell.scenario;
  result.record.run_seed = cell.seed;
  result.record.evaluations = 24;
  result.record.wall_seconds = rng.uniform();
  telemetry::Registry registry;
  registry.counter("evaluations").add(24);
  registry.gauge("cell.wall_s").observe(result.record.wall_seconds);
  registry.histogram("front.size").observe(2);
  result.record.telemetry = registry.snapshot();
  for (int p = 0; p < 2; ++p) {
    moo::Solution solution;
    solution.objectives = {rng.uniform(), -rng.uniform(), rng.uniform(0, 9)};
    for (int i = 0; i < 5; ++i) solution.x.push_back(rng.uniform(-95, 50));
    solution.evaluated = true;
    result.record.front.push_back(std::move(solution));
  }
  return result;
}

std::string message_of(const ExperimentPlan& plan, const std::string& dir) {
  try {
    (void)merge_campaign(plan, dir, scratch_dir("merge_error_out"));
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
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

TEST(CellLog, RecordsRoundTripBitwise) {
  const ExperimentPlan plan = tiny_plan();
  const ExperimentPlan::Cell cell = plan.cells()[4];
  CellResult result;
  result.index = cell.index;
  result.record.algorithm = cell.algorithm;
  result.record.scenario = cell.scenario;
  result.record.run_seed = cell.seed;
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
  // Telemetry rides the cell block; 0.1 is inexact in binary64, so a
  // lossy double round trip would show up here.
  telemetry::Registry registry;
  registry.counter("evaluations").add(24);
  registry.gauge("cell.wall_s").observe(0.1);
  registry.histogram("front.size").observe(2);
  result.record.telemetry = registry.snapshot();

  const CellLog log =
      read_cell_log(cell_log_header(plan) + cell_log_record(result), plan);
  EXPECT_EQ(log.defect, "");
  ASSERT_EQ(log.results.size(), 1u);
  const RunRecord& record = log.results[0].record;
  EXPECT_EQ(log.results[0].index, cell.index);
  EXPECT_EQ(record.algorithm, cell.algorithm);
  EXPECT_EQ(record.scenario, cell.scenario);
  EXPECT_EQ(record.run_seed, cell.seed);
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

TEST(CellLog, DamageEndsTheVerifiedPrefix) {
  const ExperimentPlan plan = tiny_plan();
  const auto cells = plan.cells();
  Xoshiro256 rng(11);
  const std::string header = cell_log_header(plan);
  const std::string first = cell_log_record(fabricate(cells[0], rng));
  const std::string second = cell_log_record(fabricate(cells[1], rng));
  const std::string whole = header + first + second;

  auto expect_prefix = [&](const std::string& text, std::size_t kept,
                           const std::string& needle) {
    const CellLog log = read_cell_log(text, plan);
    EXPECT_EQ(log.results.size(), kept) << needle;
    EXPECT_NE(log.defect.find(needle), std::string::npos)
        << "defect '" << log.defect << "' lacks '" << needle << "'";
  };
  // Header plus whole records — including none — is a clean log.
  EXPECT_EQ(read_cell_log(header, plan).defect, "");
  EXPECT_EQ(read_cell_log(whole, plan).results.size(), 2u);
  EXPECT_EQ(read_cell_log(whole, plan).defect, "");

  expect_prefix("", 0, "header");
  expect_prefix("not a cell log\n", 0, "header");
  // The retired formats and other plans' logs read as foreign headers.
  expect_prefix("aedbmls-shard-manifest v2\nfingerprint 0\n", 0,
                "aedbmls-shard-manifest v2");
  expect_prefix("aedbmls-campaign-journal v2 0 8\n", 0, "header");
  expect_prefix(cell_log_header(reseeded(plan)) + first, 0, "header");
  // Torn anywhere inside a record, even just before its last newline.
  expect_prefix(whole.substr(0, whole.size() - second.size() / 2), 1, "torn");
  expect_prefix(whole.substr(0, whole.size() - 1), 1, "torn");
  // A flipped byte fails the record's CRC.
  std::string flipped = whole;
  flipped[header.size() + first.size() + 10] ^= 0x04;
  expect_prefix(flipped, 1, "crc");
  // CRC-valid records that contradict the plan or repeat a cell.
  CellResult imposter = fabricate(cells[1], rng);
  imposter.record.run_seed ^= 1;
  expect_prefix(header + first + cell_log_record(imposter), 1, "contradicts");
  expect_prefix(header + first + first, 1, "repeats cell 0");
  // A CRC-valid block that does not decode.
  const std::string junk = "cell x 0 0 0 0 NSGAII d100 0\n";
  expect_prefix(header + first + junk + "crc " + io::crc32_hex(junk) + "\n",
                1, "bad cell index");
}

TEST(CellLog, AdversarialCountsThrowInvalidArgument) {
  // Each block passes the cell-line shape check but carries a count that
  // must be refused, not allocated: a signed front count, a terabyte
  // front, and an objective count for which `4 + n_obj + n_x` wraps.
  const ExperimentPlan plan = tiny_plan();
  const auto cells = plan.cells();
  const std::string cell_line = "cell 0 " + std::to_string(cells[0].seed) +
                                " 24 ";
  const std::string tail = " 0.25 " + cells[0].algorithm + " " +
                           cells[0].scenario + " 0\n";
  const struct {
    std::string block;
    const char* refusal;
  } cases[] = {
      {cell_line + "-1" + tail, "bad front size '-1'"},
      {cell_line + "1000000000000" + tail, "truncated"},
      {cell_line + "1" + tail + "point 18446744073709551614 2 0\n",
       "point value count mismatch"},
  };
  Xoshiro256 rng(3);
  const std::string valid = cell_log_record(fabricate(cells[1], rng));
  for (const auto& [block, refusal] : cases) {
    try {
      (void)decode_cell_result(block, cells.size());
      ADD_FAILURE() << "decoded " << block;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(refusal), std::string::npos)
          << error.what();
    }
    // Inside a CRC-valid record the reader keeps the earlier records and
    // reports the damage.
    const CellLog log = read_cell_log(cell_log_header(plan) + valid + block +
                                          "crc " + io::crc32_hex(block) + "\n",
                                      plan);
    EXPECT_EQ(log.results.size(), 1u) << block;
    EXPECT_NE(log.defect.find("record 2"), std::string::npos) << log.defect;
  }
}

TEST(CellLog, SeededMutantsNeverEscapeTheDecoders) {
  // Seeded mutation harness: truncate at every byte, flip a few seeded
  // bytes, splice in another plan's records.  The reader never throws,
  // keeps a bitwise prefix of the original records and reports damage
  // unless the mutant is the header plus whole original records; the
  // block decoder decodes or throws std::invalid_argument.
  const ExperimentPlan plan = tiny_plan();
  const ExperimentPlan other = reseeded(plan);
  const auto cells = plan.cells();
  Xoshiro256 rng(20240611);

  std::vector<CellResult> originals;
  std::string log = cell_log_header(plan);
  std::vector<std::size_t> clean_ends = {log.size()};
  for (const std::size_t index : {0u, 3u, 6u}) {
    originals.push_back(fabricate(cells[index], rng));
    log += cell_log_record(originals.back());
    clean_ends.push_back(log.size());
  }
  std::string foreign = cell_log_header(other);
  std::vector<std::string> foreign_records;
  for (const std::size_t index : {1u, 3u, 7u}) {
    foreign_records.push_back(
        cell_log_record(fabricate(other.cells()[index], rng)));
    foreign += foreign_records.back();
  }
  const std::string block = encode_cell_result(fabricate(cells[7], rng));

  std::size_t checked = 0;
  auto check_log = [&](const std::string& mutant) {
    ++checked;
    CellLog got;
    try {
      got = read_cell_log(mutant, plan);
    } catch (const std::exception& error) {
      ADD_FAILURE() << "read_cell_log threw " << error.what();
      return;
    }
    ASSERT_LE(got.results.size(), originals.size());
    for (std::size_t i = 0; i < got.results.size(); ++i) {
      ASSERT_EQ(encode_cell_result(got.results[i]),
                encode_cell_result(originals[i]))
          << "record " << i << " is not the original";
    }
    bool clean = false;
    for (const std::size_t end : clean_ends) {
      clean = clean || mutant == log.substr(0, end);
    }
    ASSERT_EQ(got.defect.empty(), clean)
        << "defect '" << got.defect << "' for mutant:\n" << mutant;
  };
  auto check_block = [&](const std::string& mutant) {
    ++checked;
    try {
      (void)decode_cell_result(mutant, cells.size());
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& error) {
      ADD_FAILURE() << "decode_cell_result threw " << error.what()
                    << " for mutant:\n" << mutant;
    }
  };
  for (std::size_t cut = 0; cut <= log.size() && !HasFatalFailure(); ++cut) {
    check_log(log.substr(0, cut));
  }
  for (std::size_t cut = 0; cut <= block.size(); ++cut) {
    check_block(block.substr(0, cut));
  }
  for (int trial = 0; trial < 2000 && !HasFatalFailure(); ++trial) {
    check_log(mutants::flip(log, rng));
    check_block(mutants::flip(block, rng));
  }
  // Whole foreign records at every record boundary, a foreign header, and
  // random foreign byte runs anywhere.
  for (const std::size_t end : clean_ends) {
    for (const std::string& record : foreign_records) {
      check_log(log.substr(0, end) + record + log.substr(end));
    }
  }
  check_log(cell_log_header(other) + log.substr(clean_ends[0]));
  for (int trial = 0; trial < 500 && !HasFatalFailure(); ++trial) {
    check_log(mutants::splice(log, foreign, rng));
    check_block(mutants::splice(block, foreign, rng));
  }
  EXPECT_GT(checked, 5000u);
}

TEST(ShardManifest, MergeReconstructsTheUnshardedCampaignBitwise) {
  const ExperimentPlan plan = tiny_plan();
  const auto full = ExperimentDriver(quiet(2)).run(plan);

  const std::string shard_dir = scratch_dir("shards");
  write_shards(plan, 3, shard_dir);

  const std::string merge_dir = scratch_dir("merged");
  const auto merged = merge_campaign(plan, shard_dir, merge_dir);

  expect_identical(full.samples, merged.samples);
  ASSERT_EQ(merged.records.size(), full.records.size());

  // The artifacts CI diffs: the merge leaves the indicator CSV, whose
  // bytes equal the unsharded run's (CRC trailer included), and the
  // campaign store holding every cell; `--front-out` writes the same
  // reference fronts from either run.
  const std::string csv = indicator_csv_path(merge_dir, plan);
  const std::string store = cell_store_path(merge_dir, plan);
  EXPECT_EQ(slurp(csv), io::with_crc_trailer(indicator_csv(full.samples)));
  std::set<fs::path> merge_files;
  for (const auto& entry : fs::directory_iterator(merge_dir)) {
    merge_files.insert(entry.path().filename());
  }
  EXPECT_EQ(merge_files, (std::set<fs::path>{fs::path(csv).filename(),
                                             fs::path(store).filename()}));
  const CellLog log = read_cell_log(slurp(store), plan);
  EXPECT_EQ(log.results.size(), plan.cell_count());
  EXPECT_EQ(log.defect, "");
  // ...so a later driver run on that directory is a hit that rewrites the
  // same CSV bytes.
  auto rerun = quiet(2);
  rerun.use_cache = true;
  rerun.cache_dir = merge_dir;
  const auto hit = ExperimentDriver(rerun).run(plan);
  EXPECT_TRUE(hit.from_cache);
  expect_identical(full.samples, hit.samples);
  EXPECT_EQ(hit.telemetry, merged.telemetry);
  EXPECT_EQ(slurp(csv), io::with_crc_trailer(indicator_csv(full.samples)));
  const std::string full_fronts = scratch_dir("full_fronts");
  const std::string merged_fronts = scratch_dir("merged_fronts");
  write_front_csvs(full_fronts, plan, full.records);
  write_front_csvs(merged_fronts, plan, merged.records);
  std::size_t fronts = 0;
  for (const auto& entry : fs::directory_iterator(full_fronts)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(slurp(merged_fronts + "/" + name), slurp(entry.path().string()))
        << name;
    ++fronts;
  }
  EXPECT_EQ(fronts, plan.scenarios.size());
}

TEST(ShardManifest, MergedTelemetryIsShardLayoutInvariant) {
  // Per-cell telemetry rides the cell logs; merge_campaign folds it in
  // grid order, so the exact instruments agree across shard layouts and
  // with the unsharded driver run.
  const ExperimentPlan plan = tiny_plan();
  const auto full = ExperimentDriver(quiet(2)).run(plan);
  ASSERT_FALSE(full.telemetry.empty());

  for (const std::size_t count : {std::size_t{2}, std::size_t{3}}) {
    const std::string shard_dir =
        scratch_dir("telemetry_shards_" + std::to_string(count));
    write_shards(plan, count, shard_dir);
    const auto merged = merge_campaign(
        plan, shard_dir,
        scratch_dir("telemetry_merged_" + std::to_string(count)));
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

TEST(ShardManifest, MergeRejectsForeignDamagedMissingAndDuplicateShards) {
  const ExperimentPlan plan = tiny_plan();
  const std::string shard_dir = scratch_dir("reject_shards");
  write_shards(plan, 2, shard_dir);
  const std::string first = shard_dir + "/shard_0_of_2.manifest";
  const std::string first_bytes = slurp(first);
  // A fresh copy of the two good shards to tamper with.
  auto copy = [&](const std::string& name) {
    const std::string dir = scratch_dir(name);
    fs::copy(shard_dir, dir);
    return dir;
  };

  // Another plan's shards: refused at the first file's header.
  EXPECT_NE(message_of(reseeded(plan), shard_dir).find(first),
            std::string::npos);
  // One flipped byte inside a record: refused, naming the file.
  {
    const std::string dir = copy("reject_flipped");
    std::string bytes = first_bytes;
    bytes[bytes.find("point ") + 8] ^= 0x01;
    spit(dir + "/shard_0_of_2.manifest", bytes);
    const std::string message = message_of(plan, dir);
    EXPECT_NE(message.find("shard_0_of_2.manifest"), std::string::npos)
        << message;
    EXPECT_NE(message.find("crc"), std::string::npos) << message;
  }
  // Cut at a record boundary the file itself reads clean, so the merge
  // refuses it as missing cells.
  {
    const std::string dir = copy("reject_cut");
    const std::size_t last_record = first_bytes.rfind("\ncell ") + 1;
    spit(dir + "/shard_0_of_2.manifest", first_bytes.substr(0, last_record));
    EXPECT_NE(message_of(plan, dir).find("1 of 8 cells missing"),
              std::string::npos);
  }
  // A missing shard leaves holes.
  {
    const std::string dir = copy("reject_missing");
    fs::remove(dir + "/shard_1_of_2.manifest");
    EXPECT_NE(message_of(plan, dir).find("4 of 8 cells missing"),
              std::string::npos);
  }
  // The same shard twice double-covers its cells.
  {
    const std::string dir = copy("reject_duplicate");
    fs::copy_file(first, dir + "/shard_0_of_2.again.manifest");
    EXPECT_NE(message_of(plan, dir).find("also in another manifest"),
              std::string::npos);
  }
  // An empty directory holds no shard at all.
  EXPECT_NE(
      message_of(plan, scratch_dir("reject_empty")).find("no *.manifest"),
      std::string::npos);
  // The untampered pair still merges.
  EXPECT_EQ(merge_campaign(plan, shard_dir, scratch_dir("reject_ok_out"))
                .records.size(),
            plan.cell_count());
}

}  // namespace
}  // namespace aedbmls::expt
