#include "common/telemetry.hpp"

#include <bit>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/cli.hpp"

namespace aedbmls::telemetry {

void HistogramStat::observe(std::uint64_t value) noexcept {
  buckets[static_cast<std::size_t>(std::bit_width(value))] += 1;
  ++count;
}

void HistogramStat::merge(const HistogramStat& other) noexcept {
  for (std::size_t b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
  count += other.count;
}

void Snapshot::merge(const Snapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, stat] : other.gauges) gauges[name].merge(stat);
  for (const auto& [name, stat] : other.histograms) {
    histograms[name].merge(stat);
  }
}

namespace {

template <typename Value>
Value& find_or_create(std::deque<std::pair<std::string, Value>>& instruments,
                      const std::string& name) {
  for (auto& [key, value] : instruments) {
    if (key == name) return value;
  }
  return instruments.emplace_back(name, Value{}).second;
}

}  // namespace

Counter& Registry::counter(const std::string& name) {
  return find_or_create(counters_, name);
}

GaugeStat& Registry::gauge(const std::string& name) {
  return find_or_create(gauges_, name);
}

HistogramStat& Registry::histogram(const std::string& name) {
  return find_or_create(histograms_, name);
}

Snapshot Registry::snapshot() const {
  Snapshot out;
  for (const auto& [name, value] : counters_) {
    out.counters[name] = value.value();
  }
  for (const auto& [name, stat] : gauges_) out.gauges[name] = stat;
  for (const auto& [name, stat] : histograms_) out.histograms[name] = stat;
  return out;
}

namespace {

/// `%.17g` round-trips IEEE-754 binary64 exactly (same contract as the
/// manifest codec, which these lines ride inside).
void append_double(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  out += buffer;
}

[[noreturn]] void fail(const std::string& line, const std::string& what) {
  throw std::invalid_argument("telemetry line '" + line + "': " + what);
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  return tokens;
}

std::uint64_t to_u64(const std::string& token, const std::string& line,
                     const char* what) {
  if (const auto value = parse_u64(token)) return *value;
  fail(line, std::string("bad ") + what + " '" + token + "'");
}

double to_double(const std::string& token, const std::string& line,
                 const char* what) {
  if (token.empty()) fail(line, std::string("empty ") + what);
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) {
    fail(line, std::string("bad ") + what + " '" + token + "'");
  }
  return value;
}

}  // namespace

std::vector<std::string> encode_snapshot(const Snapshot& snapshot) {
  std::vector<std::string> lines;
  lines.reserve(snapshot.counters.size() + snapshot.gauges.size() +
                snapshot.histograms.size());
  for (const auto& [name, value] : snapshot.counters) {
    std::string line = "tcounter " + name + ' ';
    line += std::to_string(value);
    lines.push_back(std::move(line));
  }
  for (const auto& [name, stat] : snapshot.gauges) {
    std::string line = "tgauge " + name + ' ' + std::to_string(stat.count);
    line += ' ';
    append_double(line, stat.sum);
    line += ' ';
    append_double(line, stat.min);
    line += ' ';
    append_double(line, stat.max);
    lines.push_back(std::move(line));
  }
  for (const auto& [name, stat] : snapshot.histograms) {
    std::size_t pairs = 0;
    for (const std::uint64_t bucket : stat.buckets) pairs += bucket != 0;
    std::string line = "thist " + name + ' ' + std::to_string(stat.count) +
                       ' ' + std::to_string(pairs);
    for (std::size_t b = 0; b < HistogramStat::kBuckets; ++b) {
      if (stat.buckets[b] == 0) continue;
      line += ' ';
      line += std::to_string(b);
      line += ':';
      line += std::to_string(stat.buckets[b]);
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

void decode_snapshot_line(const std::string& line, Snapshot& snapshot) {
  const auto tokens = tokens_of(line);
  if (tokens.empty()) fail(line, "empty line");
  if (tokens[0] == "tcounter") {
    if (tokens.size() != 3) fail(line, "expected 'tcounter <name> <value>'");
    snapshot.counters[tokens[1]] += to_u64(tokens[2], line, "counter value");
    return;
  }
  if (tokens[0] == "tgauge") {
    if (tokens.size() != 6) {
      fail(line, "expected 'tgauge <name> <count> <sum> <min> <max>'");
    }
    GaugeStat stat;
    stat.count = to_u64(tokens[2], line, "gauge count");
    stat.sum = to_double(tokens[3], line, "gauge sum");
    stat.min = to_double(tokens[4], line, "gauge min");
    stat.max = to_double(tokens[5], line, "gauge max");
    snapshot.gauges[tokens[1]].merge(stat);
    return;
  }
  if (tokens[0] == "thist") {
    if (tokens.size() < 4) {
      fail(line, "expected 'thist <name> <count> <pairs> ...'");
    }
    HistogramStat stat;
    stat.count = to_u64(tokens[2], line, "histogram count");
    const std::uint64_t pairs = to_u64(tokens[3], line, "histogram pairs");
    if (tokens.size() != 4 + pairs) fail(line, "histogram pair count mismatch");
    std::uint64_t bucket_total = 0;
    for (std::uint64_t p = 0; p < pairs; ++p) {
      const std::string& pair = tokens[4 + p];
      const std::size_t colon = pair.find(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 >= pair.size()) {
        fail(line, "bad histogram pair '" + pair + "'");
      }
      const std::uint64_t bucket =
          to_u64(pair.substr(0, colon), line, "histogram bucket");
      if (bucket >= HistogramStat::kBuckets) {
        fail(line, "histogram bucket out of range");
      }
      const std::uint64_t value =
          to_u64(pair.substr(colon + 1), line, "histogram bucket count");
      // Checked before adding, so the running total cannot wrap.
      if (value > stat.count - bucket_total) {
        fail(line, "histogram buckets exceed its count");
      }
      stat.buckets[bucket] += value;
      bucket_total += value;
    }
    if (bucket_total != stat.count) {
      fail(line, "histogram count does not match its buckets");
    }
    snapshot.histograms[tokens[1]].merge(stat);
    return;
  }
  fail(line, "unknown telemetry keyword '" + tokens[0] + "'");
}

ProgressMeter::ProgressMeter(std::size_t total_cells, std::size_t every,
                             std::FILE* stream)
    : total_(total_cells),
      every_(every == 0 ? 1 : every),
      stream_(stream) {}

void ProgressMeter::cell_done(const Snapshot& cell) {
  const std::lock_guard<std::mutex> lock(mutex_);
  merged_.merge(cell);
  ++done_;
  if (done_ % every_ == 0 || done_ == total_) print_locked();
}

void ProgressMeter::print_locked() {
  const double elapsed_s = timer_.seconds();
  std::string line = "[progress] " + std::to_string(done_) + "/" +
                     std::to_string(total_) + " cells";
  const auto evaluations = merged_.counters.find("evaluations");
  if (evaluations != merged_.counters.end() && elapsed_s > 0.0) {
    char buffer[64];
    // lint: allow(float-format): progress feed goes to stderr for humans,
    // never into artifact bytes; %.17g here would be noise.
    std::snprintf(buffer, sizeof buffer, " | %.1f evals/s",
                  static_cast<double>(evaluations->second) / elapsed_s);
    line += buffer;
  }
  // Per-scenario mean cell time, from the `scenario.<key>.wall_s` gauges
  // the experiment layer records (name order, so the line is stable).
  static constexpr std::string_view kPrefix = "scenario.";
  static constexpr std::string_view kSuffix = ".wall_s";
  for (const auto& [name, stat] : merged_.gauges) {
    if (stat.count == 0 || name.size() <= kPrefix.size() + kSuffix.size() ||
        name.rfind(kPrefix, 0) != 0 ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0) {
      continue;
    }
    const std::string key = name.substr(
        kPrefix.size(), name.size() - kSuffix.size() - kPrefix.size());
    char buffer[96];
    // lint: allow(float-format): human-facing stderr progress line, not an
    // artifact codec path (cached CSV bytes are verified unperturbed).
    std::snprintf(buffer, sizeof buffer, " | %s %.2f s/cell", key.c_str(),
                  stat.mean());
    line += buffer;
  }
  std::fprintf(stream_, "%s\n", line.c_str());
  std::fflush(stream_);
}

}  // namespace aedbmls::telemetry
