#include "expt/campaign_options.hpp"

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "common/cli.hpp"
#include "common/durable_file.hpp"
#include "moo/core/front_io.hpp"

namespace aedbmls::expt {
namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument(message);
}

/// `--shard=i/N` with 0-based i in [0, N).
void parse_shard_spec(const std::string& spec, CampaignOptions& out) {
  const auto bad = [&spec]() {
    fail("bad --shard spec '" + spec +
         "'; expected i/N with 0 <= i < N (e.g. --shard=0/3)");
  };
  const std::size_t slash = spec.find('/');
  if (slash == std::string::npos) bad();
  const auto index = parse_u64(std::string_view(spec).substr(0, slash));
  const auto count = parse_u64(std::string_view(spec).substr(slash + 1));
  if (!index || !count || *count == 0 || *index >= *count) bad();
  out.shard_index = *index;
  out.shard_count = *count;
}

/// `--connect=HOST:PORT` with a non-empty host and a port in [1, 65535].
void parse_host_port(const std::string& spec, CampaignOptions& out) {
  const auto bad = [&spec]() {
    fail("bad --connect spec '" + spec +
         "'; expected HOST:PORT (e.g. --connect=127.0.0.1:7000)");
  };
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0) bad();
  const auto port = parse_u64(std::string_view(spec).substr(colon + 1));
  if (!port || *port == 0 || *port > 65535) bad();
  out.connect_host = spec.substr(0, colon);
  out.connect_port = static_cast<std::uint16_t>(*port);
}

/// One distribution mode: its flag spelling, the mode it selects and the
/// operand parser.  The whole mutual-exclusion policy is this table plus
/// the single conflict loop in `parse_campaign_options` — adding a mode
/// is one row, not another scattered if-chain.
struct ModeRow {
  const char* flag;
  CampaignMode mode;
  void (*parse)(const CliArgs&, CampaignOptions&);
};

constexpr ModeRow kModes[] = {
    {"shard", CampaignMode::kShard,
     [](const CliArgs& args, CampaignOptions& out) {
       parse_shard_spec(args.get("shard"), out);
       out.shard_dir = args.get("shard-dir", "shards");
     }},
    {"merge", CampaignMode::kMerge,
     [](const CliArgs& args, CampaignOptions& out) {
       out.merge_dir = args.get("merge");
       if (out.merge_dir.empty()) fail("--merge needs a directory");
     }},
    {"serve", CampaignMode::kServe,
     [](const CliArgs& args, CampaignOptions& out) {
       const auto port = parse_u64(args.get("serve"));
       if (!port || *port > 65535) {
         fail("--serve needs a port in [0, 65535], digits only (0 picks an "
              "ephemeral port)");
       }
       out.serve_port = static_cast<std::uint16_t>(*port);
     }},
    {"connect", CampaignMode::kConnect,
     [](const CliArgs& args, CampaignOptions& out) {
       parse_host_port(args.get("connect"), out);
     }},
};

/// The mode-independent flags, same table idiom.
struct FlagRow {
  const char* flag;
  void (*parse)(const CliArgs&, CampaignOptions&);
};

constexpr FlagRow kFlags[] = {
    {"workers",
     [](const CliArgs& args, CampaignOptions& out) {
       const std::string spec = args.get("workers");
       const auto workers = parse_u64(spec);
       if (!workers) {
         fail("bad --workers value '" + spec +
              "'; expected a task count, digits only (0 = one per "
              "hardware thread)");
       }
       out.workers = static_cast<std::size_t>(*workers);
     }},
    {"cache-dir",
     [](const CliArgs& args, CampaignOptions& out) {
       out.cache_dir = args.get("cache-dir");
     }},
    {"no-cache",
     [](const CliArgs&, CampaignOptions& out) { out.use_cache = false; }},
    {"progress",
     [](const CliArgs& args, CampaignOptions& out) {
       out.progress = true;
       const std::string spec = args.get("progress");
       if (spec.empty()) return;  // bare --progress: every cell
       const auto every = parse_u64(spec);
       if (!every || *every == 0) {
         fail("bad --progress value '" + spec +
              "'; expected a cell count >= 1, digits only");
       }
       out.progress_every = static_cast<std::size_t>(*every);
     }},
    {"telemetry-out",
     [](const CliArgs& args, CampaignOptions& out) {
       out.telemetry_out = args.get("telemetry-out");
       if (out.telemetry_out.empty()) {
         fail("--telemetry-out needs a file path");
       }
     }},
    {"front-out",
     [](const CliArgs& args, CampaignOptions& out) {
       out.front_out = args.get("front-out");
       if (out.front_out.empty()) fail("--front-out needs a directory");
     }},
    {"fault-plan",
     [](const CliArgs& args, CampaignOptions& out) {
       out.fault_plan = args.get("fault-plan");
     }},
};

}  // namespace

CampaignOptions parse_campaign_options(const CliArgs& args) {
  CampaignOptions out;
  // Distribution modes are mutually exclusive; name the exact clashing
  // pair so the fix is obvious from the message alone.
  const char* first = nullptr;
  for (const ModeRow& row : kModes) {
    if (!args.has(row.flag)) continue;
    if (first != nullptr) {
      fail(std::string("--") + first + " conflicts with --" + row.flag +
           "; pick one distribution mode (--shard | --merge | --serve | "
           "--connect)");
    }
    first = row.flag;
    out.mode = row.mode;
    row.parse(args, out);
  }
  for (const FlagRow& row : kFlags) {
    if (args.has(row.flag)) row.parse(args, out);
  }
  // In serve mode the coordinator runs no cells itself, so --workers names
  // the fleet: how many worker processes to accept.
  if (out.mode == CampaignMode::kServe && out.workers == 0) {
    fail("--serve needs --workers=N (the number of worker processes that "
         "will --connect)");
  }
  // Partial-result executors never hold the full record set a reference
  // front needs.
  if (!out.front_out.empty() && (out.mode == CampaignMode::kShard ||
                                 out.mode == CampaignMode::kConnect)) {
    fail("--front-out needs the full campaign; it cannot be combined with "
         "--shard or --connect (merge or run unsharded instead)");
  }
  return out;
}

std::size_t write_telemetry_file(const std::string& path,
                                 const telemetry::Snapshot& snapshot) {
  const auto lines = telemetry::encode_snapshot(snapshot);
  std::string payload;
  for (const std::string& line : lines) {
    payload += line;
    payload += '\n';
  }
  io::atomic_write_file_or_throw(path, io::with_crc_trailer(payload));
  return lines.size();
}

void write_front_csvs(const std::string& dir, const ExperimentPlan& plan,
                      const std::vector<RunRecord>& records) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  for (const std::string& scenario : plan.scenarios) {
    auto front = reference_front(records, scenario);
    moo::sort_canonical(front);
    std::ostringstream path;
    path << dir << "/reference_" << plan.scale.name << "_" << std::hex
         << plan.fingerprint() << std::dec << "_" << scenario << ".csv";
    io::atomic_write_file_or_throw(path.str(), moo::front_to_csv(front));
  }
}

}  // namespace aedbmls::expt
