#include "expt/manifest.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/cli.hpp"
#include "common/durable_file.hpp"
#include "common/fault.hpp"
#include "common/logging.hpp"
#include "common/telemetry.hpp"

namespace aedbmls::expt {
namespace {

constexpr std::string_view kLogMagic = "aedbmls-cell-log v1";
constexpr std::string_view kCrcPrefix = "crc ";

[[noreturn]] void fail(std::size_t line_number, const std::string& what) {
  std::ostringstream os;
  os << "cell block line " << line_number << ": " << what;
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
    throw std::invalid_argument(std::string("cell ") + what + " is empty");
  }
  for (const char c : name) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      throw std::invalid_argument(std::string("cell ") + what + " '" + name +
                                  "' contains whitespace");
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
  if (const auto value = parse_u64(token)) return *value;
  fail(line_number, std::string("bad ") + what + " '" + token + "'");
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

/// The bytes of `path`; nullopt when it cannot be opened or read.
std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  if (!in) return std::nullopt;
  return std::move(bytes).str();
}

struct LineReader {
  explicit LineReader(const std::string& text) : in(text) {}

  bool next() {
    ++line_number;
    return static_cast<bool>(std::getline(in, line));
  }

  void require_next(const char* context) {
    if (!next()) {
      fail(line_number, std::string("truncated, expected ") + context);
    }
  }

  std::istringstream in;
  std::string line;
  std::size_t line_number = 0;
};

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
  // Counts are untrusted: nothing below reserves from them, so a huge
  // count fails as a truncated block instead of an allocation.
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
    // Subtract, never add: n_obj + n_x may wrap.
    const std::size_t values = point.size() - 4;
    if (n_obj > values || n_x != values - n_obj) {
      fail(reader.line_number, "point value count mismatch");
    }
    moo::Solution solution;
    solution.constraint_violation =
        to_double(point[3], reader.line_number, "constraint violation");
    for (std::size_t i = 0; i < n_obj; ++i) {
      solution.objectives.push_back(
          to_double(point[4 + i], reader.line_number, "objective"));
    }
    for (std::size_t i = 0; i < n_x; ++i) {
      solution.x.push_back(
          to_double(point[4 + n_obj + i], reader.line_number, "variable"));
    }
    solution.evaluated = true;
    result.record.front.push_back(std::move(solution));
  }
  while (reader.next()) {
    if (!reader.line.empty()) {
      fail(reader.line_number, std::string("trailing content '") +
                                   reader.line + "' after the cell block");
    }
  }
  return result;
}

void check_cell(const CellResult& result,
                const std::vector<ExperimentPlan::Cell>& cells) {
  const std::string tag = "cell " + std::to_string(result.index);
  if (result.index >= cells.size()) {
    throw std::invalid_argument(tag + " out of range");
  }
  const ExperimentPlan::Cell& cell = cells[result.index];
  if (result.record.algorithm != cell.algorithm ||
      result.record.scenario != cell.scenario ||
      result.record.run_seed != cell.seed) {
    throw std::invalid_argument(tag +
                                " contradicts the plan's cell table "
                                "(algorithm/scenario/seed)");
  }
}

std::string cell_log_header(const ExperimentPlan& plan) {
  std::ostringstream header;
  header << kLogMagic << ' ' << std::hex << plan.fingerprint() << std::dec
         << ' ' << plan.cell_count() << '\n';
  return header.str();
}

std::string cell_log_record(const CellResult& result) {
  const std::string block = encode_cell_result(result);
  return block + std::string(kCrcPrefix) + io::crc32_hex(block) + '\n';
}

CellLog read_cell_log(const std::string& text, const ExperimentPlan& plan) {
  CellLog log;
  const std::string header = cell_log_header(plan);
  if (text.compare(0, header.size(), header) != 0) {
    const std::size_t shown = std::min<std::size_t>(text.find('\n'), 80);
    log.defect = "header '" + text.substr(0, shown) +
                 "' is not this plan's '" +
                 header.substr(0, header.size() - 1) + "'";
    return log;
  }
  const auto cells = plan.cells();
  std::vector<bool> seen(cells.size(), false);
  // Lines accumulate into a record until its `crc` line; only whole,
  // newline-terminated lines count, so a cut anywhere is a torn record.
  std::size_t record_start = header.size();
  std::size_t line_start = record_start;
  for (;;) {
    const std::size_t line_end = text.find('\n', line_start);
    if (line_end == std::string::npos) break;
    const std::string_view line(text.data() + line_start,
                                line_end - line_start);
    const std::size_t block_end = line_start;
    line_start = line_end + 1;
    if (!line.starts_with(kCrcPrefix)) continue;
    const std::string block =
        text.substr(record_start, block_end - record_start);
    try {
      if (line.substr(kCrcPrefix.size()) != io::crc32_hex(block)) {
        throw std::invalid_argument("crc mismatch");
      }
      CellResult result = decode_cell_result(block, cells.size());
      check_cell(result, cells);
      if (seen[result.index]) {
        throw std::invalid_argument("repeats cell " +
                                    std::to_string(result.index));
      }
      seen[result.index] = true;
      log.results.push_back(std::move(result));
    } catch (const std::invalid_argument& error) {
      log.defect = "record " + std::to_string(log.results.size() + 1) +
                   ": " + error.what();
      return log;
    }
    record_start = line_start;
  }
  if (record_start != text.size()) {
    log.defect = "torn record after " + std::to_string(log.results.size()) +
                 " whole records";
  }
  return log;
}

void write_cell_log(const std::string& path, const ExperimentPlan& plan,
                    const std::vector<CellResult>& results) {
  std::string log = cell_log_header(plan);
  for (const CellResult& result : results) log += cell_log_record(result);
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  io::atomic_write_file_or_throw(path, log);
}

std::string cell_store_path(const std::string& dir,
                            const ExperimentPlan& plan) {
  return dir + "/" + plan_file_stem("cells", plan) + ".log";
}

std::string shard_log_path(const std::string& dir, const ExperimentPlan& plan,
                           std::size_t shard_index, std::size_t shard_count) {
  return dir + "/" + plan_file_stem("shard", plan) + "_" +
         std::to_string(shard_index) + "_of_" + std::to_string(shard_count) +
         ".manifest";
}

CampaignStore::CampaignStore(std::string path, const ExperimentPlan& plan)
    : path_(std::move(path)) {
  const auto text = read_file(path_);
  CellLog log;
  if (text) {
    log = read_cell_log(*text, plan);
    if (!log.defect.empty()) {
      log_warn("cell log ", path_, ": ", log.defect,
               "; replaying the valid prefix (", log.results.size(), " cells)");
    }
  }
  replayed_ = std::move(log.results);
  if (fault::fire("io.cache.write_fail")) {
    log_warn("fault: this run leaves the campaign store ", path_, " unwritten");
    writable_ = false;
    return;
  }
  if (!text || !log.defect.empty()) write_cell_log(path_, plan, replayed_);
  // lint: allow(durable-io): the store's append-mode journal is flushed per
  // record by design (crash resume needs every completed cell on disk at
  // once); each record carries its own CRC, so a torn tail replays its
  // valid prefix (read_cell_log), and every whole rewrite goes through
  // write_cell_log (atomic).
  auto journal = std::make_unique<std::ofstream>(
      path_, std::ios::app | std::ios::binary);
  if (*journal) {
    journal_ = std::move(journal);
  } else {
    log_warn("cannot append to ", path_,
             "; crash resume disabled for this run");
  }
}

void CampaignStore::append(const CellResult& cell) {
  const std::string record = cell_log_record(cell);
  const std::lock_guard lock(mutex_);
  if (journal_ == nullptr) return;
  if (fault::fire("io.journal.torn_tail")) {
    // Persist half a record, then stop appending — as a crash inside
    // write() would; the next startup replays the valid prefix.
    *journal_ << record.substr(0, record.size() / 2) << std::flush;
    journal_.reset();
    log_warn("fault: tore the store's tail at cell ", cell.index,
             "; appending stops for this run");
    return;
  }
  *journal_ << record << std::flush;
  if (!*journal_) {
    journal_.reset();
    log_warn("append to ", path_, " failed; appending stops for this run");
  }
}

ExperimentResult finish_campaign(const ExperimentPlan& plan,
                                 std::vector<RunRecord> records,
                                 const std::string& csv_dir) {
  ExperimentResult result;
  result.samples = reduce_to_samples(plan, records);
  result.telemetry = merge_telemetry(records);
  if (!csv_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(csv_dir, ec);
    const std::string csv_path = indicator_csv_path(csv_dir, plan);
    const std::string csv = io::with_crc_trailer(indicator_csv(result.samples));
    if (read_file(csv_path) != csv) {
      io::atomic_write_file_or_throw(csv_path, csv);
    }
  }
  result.records = std::move(records);
  return result;
}

ExperimentResult merge_campaign(const ExperimentPlan& plan,
                                const std::string& manifest_dir,
                                const std::string& cache_dir) {
  namespace fs = std::filesystem;
  validate_plan(plan);
  // Only the shard files named for this plan: shards of several plans can
  // share one directory.
  const std::string prefix = plan_file_stem("shard", plan) + "_";
  std::error_code ec;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(manifest_dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".manifest" &&
        entry.path().filename().string().rfind(prefix, 0) == 0) {
      paths.push_back(entry.path());
    }
  }
  if (ec) {
    throw std::invalid_argument("cannot read manifest directory " +
                                manifest_dir + ": " + ec.message());
  }
  if (paths.empty()) {
    throw std::invalid_argument("no shard of this plan under " +
                                manifest_dir + " (expected " + prefix +
                                "<i>_of_<N>.manifest)");
  }
  std::sort(paths.begin(), paths.end());

  std::vector<CellResult> cells(plan.cell_count());
  std::vector<bool> seen(cells.size(), false);
  for (const fs::path& path : paths) {
    const auto bytes = read_file(path.string());
    if (!bytes) {
      throw std::invalid_argument("cannot read manifest " + path.string());
    }
    CellLog log = read_cell_log(*bytes, plan);
    if (!log.defect.empty()) {
      throw std::invalid_argument(path.string() + ": " + log.defect +
                                  " (regenerate this shard)");
    }
    for (CellResult& result : log.results) {
      if (seen[result.index]) {
        throw std::invalid_argument(
            path.string() + ": cell " + std::to_string(result.index) +
            " is also in another manifest (overlapping or duplicate shards)");
      }
      seen[result.index] = true;
      cells[result.index] = std::move(result);
    }
  }
  const std::size_t missing = static_cast<std::size_t>(
      std::count(seen.begin(), seen.end(), false));
  if (missing > 0) {
    const std::size_t first = static_cast<std::size_t>(
        std::find(seen.begin(), seen.end(), false) - seen.begin());
    std::ostringstream os;
    os << missing << " of " << seen.size()
       << " cells missing (first missing: cell " << first
       << ") — merge needs every shard of the campaign";
    throw std::invalid_argument(os.str());
  }
  // Unlike a --no-cache driver run, a merge always writes its output: the
  // CSV is the artifact CI diffs against an unsharded run.
  if (fault::fire("io.cache.write_fail")) {
    log_warn("fault: skipping the campaign store in ", cache_dir);
  } else {
    write_cell_log(cell_store_path(cache_dir, plan), plan, cells);
  }
  std::vector<RunRecord> records;
  records.reserve(cells.size());
  for (CellResult& cell : cells) records.push_back(std::move(cell.record));
  return finish_campaign(plan, std::move(records), cache_dir);
}

}  // namespace aedbmls::expt
