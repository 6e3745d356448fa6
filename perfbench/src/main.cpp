/// perfbench — runs one workload and prints one JSON line: whether every
/// output check passed, operations attempted/failed, the metrics by name,
/// the work counters (exact vs trajectory-dependent), reconciliation flags
/// and run metadata.  `run.py` builds this binary, runs it and formats the
/// final result.
///
///   perfbench --workload=mls-d300|campaign-smoke|race-deadline --seed=N
///             --seconds=S [--trace=0|1] [--trace-out=FILE]
///             [--digests=perfbench/digests.txt] [--commit=...]
///             [--source-digest=...]
///   perfbench --pin-digests=64 --digests=perfbench/digests.txt
///
/// Exit status: 0 when every check passed, 1 when one failed, 2 on bad
/// arguments.

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include "common/cli.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Outcome;

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

template <class Map, class Format>
std::string object(const Map& map, Format format) {
  std::string out = "{";
  for (const auto& [name, value] : map) {
    out += (out.size() > 1 ? ", " : "") + quoted(name) + ": " + format(value);
  }
  return out + "}";
}

std::string list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) {
    out += (out.size() > 1 ? ", " : "") + quoted(item);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  const aedbmls::CliArgs args(argc, argv);
  perfbench::Options options;
  options.digests_path = args.get("digests", "perfbench/digests.txt");
  if (args.has("pin-digests")) {
    return perfbench::pin_campaign_digests(
        static_cast<std::size_t>(args.get_int("pin-digests", 64)), options.digests_path);
  }
  options.workload = args.get("workload", "");
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
  options.seconds = args.get_double("seconds", 10.0);
  options.trace = args.get_int("trace", 0) != 0;
  // Warm-up, then two measured repetitions (two untraced/traced pairs).
  options.min_reps = options.trace ? 5 : 3;
  options.trace_out = args.get("trace-out", "");
  options.commit = args.get("commit", "unknown");
  options.source_digest = args.get("source-digest", "unknown");

  perfbench::Tracer tracer;
  perfbench::Tracer* active = options.trace ? &tracer : nullptr;
  Outcome outcome;
  if (options.workload == "mls-d300") {
    outcome = perfbench::run_mls_d300(options, active);
  } else if (options.workload == "campaign-smoke") {
    outcome = perfbench::run_campaign_smoke(options, active);
  } else if (options.workload == "race-deadline") {
    outcome = perfbench::run_race_deadline(options, active);
  } else {
    std::fprintf(stderr,
                 "unknown --workload '%s' (mls-d300, campaign-smoke, race-deadline)\n",
                 options.workload.c_str());
    return 2;
  }
  if (active != nullptr && !options.trace_out.empty() &&
      !tracer.write_chrome_json(options.trace_out)) {
    outcome.flags.push_back("could not write " + options.trace_out);
  }
  for (auto& [name, value] : outcome.metrics) {
    if (!std::isfinite(value)) {
      outcome.fail(0, "metric " + name + " is not finite");
      value = 0.0;
    }
  }
  if (outcome.attempted == 0) outcome.fail(0, "no operation was attempted");

  std::map<std::string, std::string> meta = outcome.info;
  meta["workload"] = options.workload;
  meta["seed"] = std::to_string(options.seed);
  meta["seconds"] = number(options.seconds);
  meta["trace"] = options.trace ? "1" : "0";
  meta["nproc"] = std::to_string(perfbench::load_threads());
  meta["compiler"] = PERFBENCH_COMPILER;
  meta["build_type"] = PERFBENCH_BUILD_TYPE;
  meta["commit"] = options.commit;
  meta["source_digest"] = options.source_digest;

  const auto as_number = [](double v) { return number(v); };
  const auto as_count = [](std::uint64_t v) { return std::to_string(v); };
  const auto as_text = [](const std::string& v) { return quoted(v); };
  const bool correct = outcome.failed == 0 && outcome.failures.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s, "
      "\"exact\": %s, \"trajectory\": %s, \"failures\": %s, \"flags\": %s, "
      "\"meta\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed),
      object(outcome.metrics, as_number).c_str(), object(outcome.exact, as_count).c_str(),
      object(outcome.trajectory, as_count).c_str(), list(outcome.failures).c_str(),
      list(outcome.flags).c_str(), object(meta, as_text).c_str());
  return correct ? 0 : 1;
}
