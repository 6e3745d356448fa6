// CampaignOptions — the unified campaign CLI surface: table-driven flag
// parsing, strict operands, distribution-mode mutual exclusion, the flags
// a campaign bench declares and durable telemetry dumps.

#include "expt/campaign_options.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/durable_file.hpp"
#include "expt/scale.hpp"

namespace aedbmls::expt {
namespace {

CliArgs args_of(std::vector<std::string> words) {
  std::vector<const char*> argv{"bench"};
  for (const std::string& word : words) argv.push_back(word.c_str());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

std::string message_of(const std::vector<std::string>& words) {
  try {
    (void)parse_campaign_options(args_of(words));
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("campaign_options_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

TEST(CampaignOptions, DefaultsToLocalMode) {
  const CampaignOptions options = parse_campaign_options(args_of({}));
  EXPECT_EQ(options.mode, CampaignMode::kLocal);
  EXPECT_FALSE(options.cache_dir.has_value());
  EXPECT_FALSE(options.progress);
  EXPECT_TRUE(options.telemetry_out.empty());
  EXPECT_TRUE(options.front_out.empty());
  EXPECT_TRUE(options.use_cache);
  EXPECT_TRUE(options.fault_plan.empty());
}

TEST(CampaignOptions, ParsesCacheAndProgressFlags) {
  EXPECT_FALSE(parse_campaign_options(args_of({"--no-cache"})).use_cache);
  const auto bare = parse_campaign_options(args_of({"--progress"}));
  EXPECT_TRUE(bare.progress);
  EXPECT_EQ(bare.progress_every, 1u);
  EXPECT_EQ(parse_campaign_options(args_of({"--progress=5"})).progress_every,
            5u);
}

TEST(CampaignOptions, ParsesEachDistributionMode) {
  const auto shard =
      parse_campaign_options(args_of({"--shard=1/4", "--shard-dir=parts"}));
  EXPECT_EQ(shard.mode, CampaignMode::kShard);
  EXPECT_EQ(shard.shard_index, 1u);
  EXPECT_EQ(shard.shard_count, 4u);
  EXPECT_EQ(shard.shard_dir, "parts");
  EXPECT_EQ(parse_campaign_options(args_of({"--shard=0/2"})).shard_dir,
            "shards");
  EXPECT_EQ(parse_campaign_options(args_of({"--merge=dir"})).merge_dir, "dir");
}

/// bench_fig7_indicators' table: the scale, campaign and algorithm flags
/// (the last is bench_cli's `kAlgorithmFlags`).
constexpr std::string_view kAlgorithmFlags[] = {"algorithms"};

void check_fig7_flags(const std::vector<std::string>& words) {
  check_flags_or_exit(args_of(words),
                      {kScaleFlags, campaign_flags(), kAlgorithmFlags});
}

TEST(CampaignOptions, CampaignFlagsDeclareEveryFlagTheParserReads) {
  // Returning is the pass: a rejection exits the process.
  check_fig7_flags({"--shard=0/2", "--shard-dir=d", "--merge=m",
                    "--workers=2", "--cache-dir=c", "--no-cache",
                    "--progress=3", "--telemetry-out=t", "--front-out=f",
                    "--fault-plan="});
}

TEST(CampaignOptionsDeathTest, RemovedServiceFlagsNameTheShardWorkflow) {
  // The elastic service is gone and its two rows with it: --serve and
  // --connect are undeclared, so fig7's table refuses them by name, and
  // its listing names the shard workflow that replaced them.  So for the
  // campaign's old --scenario spelling and a typo.
  for (const std::string flag : {"--serve", "--connect"}) {
    EXPECT_EXIT(check_fig7_flags({flag + "=7000", "--workers=2"}),
                ::testing::ExitedWithCode(2),
                "unknown flag " + flag + ";.* --shard --merge ")
        << flag;
  }
  EXPECT_EXIT(check_fig7_flags({"--scenario=d100"}),
              ::testing::ExitedWithCode(2),
              "unknown flag --scenario;.* --scenarios ");
  EXPECT_EXIT(check_fig7_flags({"--evlas=8"}), ::testing::ExitedWithCode(2),
              "unknown flag --evlas;");
}

TEST(CampaignOptions, ShardDirWithoutShardIsRefused) {
  // Only a --shard run reads --shard-dir; without one the flag would be
  // silently inert, so the refusal names both flags.
  for (const std::vector<std::string>& words :
       {std::vector<std::string>{"--shard-dir=zz"},
        std::vector<std::string>{"--shard-dir=zz", "--workers=1", "--no-cache"},
        std::vector<std::string>{"--merge=m", "--shard-dir=zz"}}) {
    const std::string message = message_of(words);
    EXPECT_NE(message.find("--shard-dir"), std::string::npos) << message;
    EXPECT_NE(message.find("--shard=i/N"), std::string::npos) << message;
  }
}

TEST(CampaignOptions, ParsesLocalWorkers) {
  EXPECT_EQ(parse_campaign_options(args_of({})).workers, 0u);
  const auto local = parse_campaign_options(args_of({"--workers=3"}));
  EXPECT_EQ(local.mode, CampaignMode::kLocal);
  EXPECT_EQ(local.workers, 3u);
}

TEST(CampaignOptions, ModeConflictNamesTheClashingPair) {
  const std::string message =
      message_of({"--shard=0/2", "--merge=dir"});
  EXPECT_NE(message.find("--shard"), std::string::npos) << message;
  EXPECT_NE(message.find("--merge"), std::string::npos) << message;
  EXPECT_NE(message.find("pick one distribution mode"), std::string::npos)
      << message;
  // The pair conflicts whatever the order.
  EXPECT_NE(message_of({"--merge=dir", "--shard=0/2"})
                .find("pick one distribution mode"),
            std::string::npos);
}

TEST(CampaignOptions, RejectsMalformedOperands) {
  // --shard grammar: i/N, digits only, 0 <= i < N.
  for (const char* spec : {"--shard=2", "--shard=a/b", "--shard=2/2",
                           "--shard=-1/3", "--shard=0/0", "--shard=/3"}) {
    EXPECT_FALSE(message_of({spec}).empty()) << spec;
  }
  EXPECT_FALSE(message_of({"--merge="}).empty());
  // Directory operands: `--flag=` and a bare `--flag` followed by another
  // flag parse to "", which would put the files at the filesystem root.
  const struct {
    std::vector<std::string> words;
    const char* refusal;
  } empty_dirs[] = {
      {{"--cache-dir="}, "--cache-dir needs a directory"},
      {{"--cache-dir", "--no-cache"}, "--cache-dir needs a directory"},
      {{"--shard=0/2", "--shard-dir="}, "--shard-dir needs a directory"},
      {{"--shard=0/2", "--shard-dir", "--workers=1"},
       "--shard-dir needs a directory"},
  };
  for (const auto& [words, refusal] : empty_dirs) {
    const std::string message = message_of(words);
    EXPECT_NE(message.find(refusal), std::string::npos) << message;
  }
  // --progress=N grammar: digits only, N >= 1 (a bare --progress is 1).
  for (const char* spec :
       {"--progress=abc", "--progress=-3", "--progress=0", "--progress=2x"}) {
    EXPECT_NE(message_of({spec}).find("--progress"), std::string::npos)
        << spec;
  }
  // --workers grammar: digits only, in every mode.
  for (const char* spec : {"--workers=abc", "--workers=-2", "--workers="}) {
    EXPECT_FALSE(message_of({spec}).empty()) << spec;
  }
  EXPECT_FALSE(message_of({"--telemetry-out="}).empty());
  EXPECT_FALSE(message_of({"--front-out="}).empty());
}

TEST(CampaignOptions, FrontOutRejectsPartialResultModes) {
  EXPECT_NE(
      message_of({"--shard=0/2", "--front-out=d"}).find("--front-out"),
      std::string::npos);
  // ...but composes with the full-campaign modes.
  EXPECT_EQ(parse_campaign_options(args_of({"--merge=dir", "--front-out=d"}))
                .front_out,
            "d");
}

TEST(CampaignOptions, TelemetryRoundTripsThroughDurableDump) {
  TempDir dir;
  telemetry::Snapshot snapshot;
  snapshot.counters["cells"] = 3;
  snapshot.gauges["scenario.d100.wall_s"].observe(1.5);
  snapshot.gauges["scenario.d100.wall_s"].observe(2.5);
  const std::string path = dir.file("dump.telemetry");
  EXPECT_GT(write_telemetry_file(path, snapshot), 0u);

  // The dump is the snapshot codec's lines sealed by a `#crc32` trailer;
  // decoding the lines through the codec gives back the snapshot exactly.
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const std::size_t trailer = bytes.rfind("#crc32 ");
  ASSERT_NE(trailer, std::string::npos);
  const std::string payload = bytes.substr(0, trailer);
  EXPECT_EQ(bytes, io::with_crc_trailer(payload));
  telemetry::Snapshot decoded;
  std::istringstream lines(payload);
  for (std::string line; std::getline(lines, line);) {
    telemetry::decode_snapshot_line(line, decoded);
  }
  EXPECT_EQ(decoded, snapshot);
}

}  // namespace
}  // namespace aedbmls::expt
