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

/// A directory operand: `--flag=` and a bare `--flag` parse to "", which
/// would put the files at the filesystem root.
std::string directory_operand(const CliArgs& args, const char* flag) {
  std::string dir = args.get(flag);
  if (dir.empty()) fail(std::string("--") + flag + " needs a directory");
  return dir;
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
       if (args.has("shard-dir")) {
         out.shard_dir = directory_operand(args, "shard-dir");
       }
     }},
    {"merge", CampaignMode::kMerge,
     [](const CliArgs& args, CampaignOptions& out) {
       out.merge_dir = directory_operand(args, "merge");
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
       out.workers = static_cast<std::size_t>(args.get_int("workers", 0));
     }},
    {"cache-dir",
     [](const CliArgs& args, CampaignOptions& out) {
       out.cache_dir = directory_operand(args, "cache-dir");
     }},
    {"no-cache",
     [](const CliArgs&, CampaignOptions& out) { out.use_cache = false; }},
    {"progress",
     [](const CliArgs& args, CampaignOptions& out) {
       out.progress = true;
       if (args.get("progress").empty()) return;  // bare: every cell
       out.progress_every =
           static_cast<std::size_t>(args.get_int("progress", 1));
       if (out.progress_every == 0) fail("--progress needs a cell count >= 1");
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
       out.front_out = directory_operand(args, "front-out");
     }},
    {"fault-plan",
     [](const CliArgs& args, CampaignOptions& out) {
       out.fault_plan = args.get("fault-plan");
     }},
};

}  // namespace

const std::vector<std::string_view>& campaign_flags() {
  static const std::vector<std::string_view> flags = [] {
    std::vector<std::string_view> out{"shard-dir"};  // read by the shard row
    for (const ModeRow& row : kModes) out.emplace_back(row.flag);
    for (const FlagRow& row : kFlags) out.emplace_back(row.flag);
    return out;
  }();
  return flags;
}

CampaignOptions parse_campaign_options(const CliArgs& args) {
  CampaignOptions out;
  // Distribution modes are mutually exclusive; name the exact clashing
  // pair so the fix is obvious from the message alone.
  const char* first = nullptr;
  for (const ModeRow& row : kModes) {
    if (!args.has(row.flag)) continue;
    if (first != nullptr) {
      fail(std::string("--") + first + " conflicts with --" + row.flag +
           "; pick one distribution mode (--shard | --merge)");
    }
    first = row.flag;
    out.mode = row.mode;
    row.parse(args, out);
  }
  for (const FlagRow& row : kFlags) {
    if (args.has(row.flag)) row.parse(args, out);
  }
  // A shard never holds the full record set a reference front needs.
  if (!out.front_out.empty() && out.mode == CampaignMode::kShard) {
    fail("--front-out needs the full campaign; it cannot be combined with "
         "--shard (merge or run unsharded instead)");
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
