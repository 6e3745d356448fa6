#include "expt/manifest.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/durable_file.hpp"
#include "common/telemetry.hpp"
#include "moo/core/front_io.hpp"

namespace aedbmls::expt {
namespace {

constexpr const char* kMagic = "aedbmls-shard-manifest v2";

[[noreturn]] void fail(std::size_t line_number, const std::string& what) {
  std::ostringstream os;
  os << "manifest line " << line_number << ": " << what;
  throw std::invalid_argument(os.str());
}

/// `%.17g` round-trips IEEE-754 binary64 exactly — the property the
/// merged-CSV bitwise guarantee rests on.
void append_double(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  out += buffer;
}

const std::string& checked_name(const std::string& name, const char* what) {
  if (name.empty()) {
    throw std::invalid_argument(std::string("manifest ") + what + " is empty");
  }
  for (const char c : name) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      throw std::invalid_argument(std::string("manifest ") + what + " '" +
                                  name + "' contains whitespace");
    }
  }
  return name;
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  return tokens;
}

std::size_t to_size(const std::string& token, std::size_t line_number,
                    const char* what) {
  try {
    std::size_t pos = 0;
    const unsigned long long value = std::stoull(token, &pos);
    if (pos != token.size()) throw std::invalid_argument(token);
    return static_cast<std::size_t>(value);
  } catch (const std::exception&) {
    fail(line_number, std::string("bad ") + what + " '" + token + "'");
  }
}

std::uint64_t to_u64_hex(const std::string& token, std::size_t line_number,
                         const char* what) {
  try {
    std::size_t pos = 0;
    const unsigned long long value = std::stoull(token, &pos, 16);
    if (pos != token.size()) throw std::invalid_argument(token);
    return static_cast<std::uint64_t>(value);
  } catch (const std::exception&) {
    fail(line_number, std::string("bad ") + what + " '" + token + "'");
  }
}

double to_double(const std::string& token, std::size_t line_number,
                 const char* what) {
  if (token.empty()) fail(line_number, std::string("empty ") + what);
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) {
    fail(line_number, std::string("bad ") + what + " '" + token + "'");
  }
  return value;
}

struct LineReader {
  explicit LineReader(const std::string& text) : in(text) {}

  bool next() {
    ++line_number;
    return static_cast<bool>(std::getline(in, line));
  }

  void require_next(const char* context) {
    if (!next()) {
      std::ostringstream os;
      os << "manifest truncated at line " << line_number << ", expected "
         << context;
      throw std::invalid_argument(os.str());
    }
  }

  std::istringstream in;
  std::string line;
  std::size_t line_number = 0;
};

/// One `key v0 v1 ...` header line with an exact token count.
std::vector<std::string> header_tokens(LineReader& reader, const char* key,
                                       std::size_t count) {
  reader.require_next(key);
  const auto tokens = tokens_of(reader.line);
  if (tokens.size() != count + 1 || tokens[0] != key) {
    fail(reader.line_number,
         std::string("expected '") + key + "' header, got '" + reader.line +
             "'");
  }
  return tokens;
}

/// Decodes one cell block given its already-tokenised `cell` header line;
/// consumes the block's telemetry and point lines from `reader`.  Shared by
/// the whole-manifest decoder and `decode_cell_result`.
CellResult decode_cell_body(LineReader& reader,
                            const std::vector<std::string>& tokens,
                            std::size_t total_cells) {
  CellResult result;
  result.index = to_size(tokens[1], reader.line_number, "cell index");
  if (result.index >= total_cells) {
    fail(reader.line_number, "cell index out of range");
  }
  result.record.run_seed = static_cast<std::uint64_t>(
      to_size(tokens[2], reader.line_number, "run seed"));
  result.record.evaluations =
      to_size(tokens[3], reader.line_number, "evaluation count");
  const std::size_t front_size =
      to_size(tokens[4], reader.line_number, "front size");
  result.record.wall_seconds =
      to_double(tokens[5], reader.line_number, "wall seconds");
  result.record.algorithm = tokens[6];
  result.record.scenario = tokens[7];
  const std::size_t telemetry_lines =
      to_size(tokens[8], reader.line_number, "telemetry line count");
  for (std::size_t t = 0; t < telemetry_lines; ++t) {
    reader.require_next("a telemetry line");
    try {
      telemetry::decode_snapshot_line(reader.line, result.record.telemetry);
    } catch (const std::invalid_argument& error) {
      fail(reader.line_number, error.what());
    }
  }
  result.record.front.reserve(front_size);
  for (std::size_t p = 0; p < front_size; ++p) {
    reader.require_next("a 'point' line");
    const auto point = tokens_of(reader.line);
    if (point.size() < 4 || point[0] != "point") {
      fail(reader.line_number,
           std::string("expected 'point', got '") + reader.line + "'");
    }
    const std::size_t n_obj =
        to_size(point[1], reader.line_number, "objective count");
    const std::size_t n_x =
        to_size(point[2], reader.line_number, "variable count");
    if (point.size() != 4 + n_obj + n_x) {
      fail(reader.line_number, "point value count mismatch");
    }
    moo::Solution solution;
    solution.constraint_violation =
        to_double(point[3], reader.line_number, "constraint violation");
    solution.objectives.reserve(n_obj);
    for (std::size_t i = 0; i < n_obj; ++i) {
      solution.objectives.push_back(
          to_double(point[4 + i], reader.line_number, "objective"));
    }
    solution.x.reserve(n_x);
    for (std::size_t i = 0; i < n_x; ++i) {
      solution.x.push_back(
          to_double(point[4 + n_obj + i], reader.line_number, "variable"));
    }
    solution.evaluated = true;
    result.record.front.push_back(std::move(solution));
  }
  return result;
}

}  // namespace

std::vector<ExperimentPlan::Cell> cells_for_shard(const ExperimentPlan& plan,
                                                  std::size_t shard_index,
                                                  std::size_t shard_count) {
  if (shard_count == 0) {
    throw std::invalid_argument("shard count must be >= 1");
  }
  if (shard_index >= shard_count) {
    std::ostringstream os;
    os << "shard index " << shard_index << " out of range for " << shard_count
       << " shards";
    throw std::invalid_argument(os.str());
  }
  auto cells = plan.cells();
  std::vector<ExperimentPlan::Cell> out;
  out.reserve(cells.size() / shard_count + 1);
  for (std::size_t i = shard_index; i < cells.size(); i += shard_count) {
    out.push_back(std::move(cells[i]));
  }
  return out;
}

ShardManifest make_manifest(const ExperimentPlan& plan,
                            std::size_t shard_index, std::size_t shard_count,
                            std::vector<CellResult> results) {
  ShardManifest manifest;
  manifest.fingerprint = plan.fingerprint();
  manifest.scale_name = plan.scale.name;
  manifest.shard_index = shard_index;
  manifest.shard_count = shard_count;
  manifest.total_cells = plan.cell_count();
  manifest.results = std::move(results);
  return manifest;
}

std::string encode_manifest(const ShardManifest& manifest) {
  std::string out;
  out += kMagic;
  out += '\n';
  {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%llx",
                  static_cast<unsigned long long>(manifest.fingerprint));
    out += "fingerprint ";
    out += buffer;
    out += '\n';
  }
  out += "scale " + checked_name(manifest.scale_name, "scale name") + '\n';
  std::ostringstream shape;
  shape << "shard " << manifest.shard_index << ' ' << manifest.shard_count
        << '\n'
        << "cells " << manifest.total_cells << '\n';
  out += shape.str();
  for (const CellResult& result : manifest.results) {
    out += encode_cell_result(result);
  }
  out += "end\n";
  return out;
}

std::string encode_cell_result(const CellResult& result) {
  const RunRecord& record = result.record;
  // The cell line's trailing count announces how many telemetry lines
  // follow it (before the points), so the decoder needs no look-ahead.
  const std::vector<std::string> telemetry_lines =
      telemetry::encode_snapshot(record.telemetry);
  std::string out;
  std::ostringstream cell;
  cell << "cell " << result.index << ' ' << record.run_seed << ' '
       << record.evaluations << ' ' << record.front.size() << ' ';
  out += cell.str();
  append_double(out, record.wall_seconds);
  out += ' ';
  out += checked_name(record.algorithm, "algorithm name");
  out += ' ';
  out += checked_name(record.scenario, "scenario key");
  out += ' ';
  out += std::to_string(telemetry_lines.size());
  out += '\n';
  for (const std::string& line : telemetry_lines) {
    out += line;
    out += '\n';
  }
  for (const moo::Solution& solution : record.front) {
    std::ostringstream point;
    point << "point " << solution.objectives.size() << ' '
          << solution.x.size() << ' ';
    out += point.str();
    append_double(out, solution.constraint_violation);
    for (const double f : solution.objectives) {
      out += ' ';
      append_double(out, f);
    }
    for (const double x : solution.x) {
      out += ' ';
      append_double(out, x);
    }
    out += '\n';
  }
  return out;
}

CellResult decode_cell_result(const std::string& text,
                              std::size_t total_cells) {
  LineReader reader(text);
  reader.require_next("a 'cell' line");
  const auto tokens = tokens_of(reader.line);
  if (tokens.size() != 9 || tokens[0] != "cell") {
    fail(reader.line_number,
         std::string("expected a 'cell' line, got '") + reader.line + "'");
  }
  CellResult result = decode_cell_body(reader, tokens, total_cells);
  while (reader.next()) {
    if (!reader.line.empty()) {
      fail(reader.line_number, std::string("trailing content '") +
                                   reader.line + "' after the cell block");
    }
  }
  return result;
}

ShardManifest decode_manifest(const std::string& text) {
  LineReader reader(text);
  reader.require_next("the manifest header");
  if (reader.line != kMagic) {
    fail(reader.line_number, std::string("bad header '") + reader.line +
                                 "', expected '" + kMagic + "'");
  }

  ShardManifest manifest;
  manifest.fingerprint = to_u64_hex(header_tokens(reader, "fingerprint", 1)[1],
                                    reader.line_number, "fingerprint");
  manifest.scale_name = header_tokens(reader, "scale", 1)[1];
  {
    const auto tokens = header_tokens(reader, "shard", 2);
    manifest.shard_index =
        to_size(tokens[1], reader.line_number, "shard index");
    manifest.shard_count =
        to_size(tokens[2], reader.line_number, "shard count");
    if (manifest.shard_count == 0 ||
        manifest.shard_index >= manifest.shard_count) {
      fail(reader.line_number, "shard index out of range");
    }
  }
  manifest.total_cells =
      to_size(header_tokens(reader, "cells", 1)[1], reader.line_number,
              "cell count");

  for (;;) {
    reader.require_next("'cell' or 'end'");
    if (reader.line == "end") break;
    const auto tokens = tokens_of(reader.line);
    if (tokens.size() != 9 || tokens[0] != "cell") {
      fail(reader.line_number,
           std::string("expected 'cell' or 'end', got '") + reader.line + "'");
    }
    manifest.results.push_back(
        decode_cell_body(reader, tokens, manifest.total_cells));
  }
  return manifest;
}

std::string manifest_filename(std::size_t shard_index,
                              std::size_t shard_count) {
  std::ostringstream name;
  name << "shard_" << shard_index << "_of_" << shard_count << ".manifest";
  return name.str();
}

std::string write_manifest(const std::string& dir,
                           const ShardManifest& manifest) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path =
      dir + "/" + manifest_filename(manifest.shard_index, manifest.shard_count);
  // Atomic + checksummed: a merge must never see half a shard.  The CRC
  // trailer rides after the `end` line, which the decoder ignores.
  io::atomic_write_file_or_throw(
      path, io::with_crc_trailer(encode_manifest(manifest)));
  return path;
}

std::vector<ShardManifest> load_manifests(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".manifest") {
      paths.push_back(entry.path());
    }
  }
  if (ec) {
    throw std::invalid_argument("cannot read manifest directory " + dir +
                                ": " + ec.message());
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    throw std::invalid_argument("no *.manifest files under " + dir);
  }
  std::vector<ShardManifest> manifests;
  manifests.reserve(paths.size());
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream slurp;
    slurp << in.rdbuf();
    if (!in) {
      throw std::invalid_argument("cannot read manifest " + path.string());
    }
    std::string text = std::move(slurp).str();
    // Named rejection, never silent acceptance: a manifest whose bytes no
    // longer match its trailer must stop the merge, not feed it garbage.
    if (io::strip_crc_trailer(text) == io::CrcCheck::kMismatch) {
      throw std::invalid_argument(path.string() +
                                  ": crc32 trailer mismatch (corrupt shard "
                                  "manifest; regenerate this shard)");
    }
    try {
      manifests.push_back(decode_manifest(text));
    } catch (const std::invalid_argument& error) {
      throw std::invalid_argument(path.string() + ": " + error.what());
    }
  }
  return manifests;
}

std::vector<RunRecord> merge_manifests(
    const ExperimentPlan& plan, const std::vector<ShardManifest>& manifests) {
  const std::uint64_t fingerprint = plan.fingerprint();
  const auto cells = plan.cells();
  std::vector<RunRecord> records(cells.size());
  std::vector<bool> seen(cells.size(), false);

  for (const ShardManifest& manifest : manifests) {
    std::ostringstream tag_os;
    tag_os << "shard " << manifest.shard_index << "/" << manifest.shard_count;
    const std::string tag = tag_os.str();
    if (manifest.fingerprint != fingerprint) {
      std::ostringstream os;
      os << tag << ": plan fingerprint mismatch (manifest " << std::hex
         << manifest.fingerprint << ", plan " << fingerprint << std::dec
         << ") — the shard was run against a different plan";
      throw std::invalid_argument(os.str());
    }
    if (manifest.total_cells != cells.size()) {
      std::ostringstream os;
      os << tag << ": cell count mismatch (manifest " << manifest.total_cells
         << ", plan " << cells.size() << ")";
      throw std::invalid_argument(os.str());
    }
    for (const CellResult& result : manifest.results) {
      std::ostringstream os;
      os << tag << ": cell " << result.index;
      if (result.index >= cells.size()) {
        throw std::invalid_argument(os.str() + " out of range");
      }
      if (seen[result.index]) {
        throw std::invalid_argument(
            os.str() + " already merged (overlapping or duplicate shards)");
      }
      const ExperimentPlan::Cell& cell = cells[result.index];
      if (result.record.algorithm != cell.algorithm ||
          result.record.scenario != cell.scenario ||
          result.record.run_seed != cell.seed) {
        throw std::invalid_argument(os.str() +
                                    " metadata contradicts the plan's cell "
                                    "table (algorithm/scenario/seed)");
      }
      seen[result.index] = true;
      records[result.index] = result.record;
    }
  }

  const std::size_t missing = static_cast<std::size_t>(
      std::count(seen.begin(), seen.end(), false));
  if (missing > 0) {
    const std::size_t first = static_cast<std::size_t>(
        std::find(seen.begin(), seen.end(), false) - seen.begin());
    std::ostringstream os;
    os << missing << " of " << cells.size()
       << " cells missing (first missing: cell " << first
       << ") — merge needs every shard of the campaign";
    throw std::invalid_argument(os.str());
  }
  return records;
}

namespace {

/// Unlike the drivers' best-effort cache store, merge artifacts are the
/// whole point of the merge — a silent write failure would let the caller
/// report success for files that do not exist.
void write_file_or_throw(const std::string& path, const std::string& bytes) {
  io::atomic_write_file_or_throw(path, bytes);
}

}  // namespace

ExperimentResult merge_campaign(const ExperimentPlan& plan,
                                const std::string& manifest_dir,
                                const ExperimentDriver::Options& options) {
  validate_plan(plan);
  const auto manifests = load_manifests(manifest_dir);
  auto records = merge_manifests(plan, manifests);

  ExperimentResult result;
  result.samples = reduce_to_samples(plan, records);
  result.telemetry = merge_telemetry(records);
  // The canonical artifacts CI diffs against an unsharded run: the
  // fingerprint-keyed indicator CSV (same bytes as the driver's cache
  // store, CRC trailer included) and the per-scenario reference fronts.
  std::error_code ec;
  std::filesystem::create_directories(options.cache_dir, ec);
  write_file_or_throw(indicator_csv_path(options.cache_dir, plan),
                      io::with_crc_trailer(indicator_csv(result.samples)));
  for (const std::string& scenario : plan.scenarios) {
    const auto reference = reference_front(records, scenario);
    std::ostringstream path;
    path << options.cache_dir << "/reference_" << plan.scale.name << "_"
         << std::hex << plan.fingerprint() << std::dec << "_" << scenario
         << ".csv";
    write_file_or_throw(path.str(), moo::front_to_csv(reference));
  }
  if (options.collect_records) result.records = std::move(records);
  return result;
}

}  // namespace aedbmls::expt
