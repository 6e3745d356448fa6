// CampaignOptions — the unified campaign CLI surface: table-driven flag
// parsing, strict operands, distribution-mode mutual exclusion and
// durable telemetry dumps.

#include "expt/campaign_options.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/durable_file.hpp"

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
  EXPECT_FALSE(options.fault_plan.has_value());
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
  EXPECT_EQ(parse_campaign_options(args_of({"--merge=dir"})).merge_dir, "dir");
  const auto serve =
      parse_campaign_options(args_of({"--serve=7000", "--workers=2"}));
  EXPECT_EQ(serve.serve_port, 7000u);
  EXPECT_EQ(serve.workers, 2u);
  const auto connect =
      parse_campaign_options(args_of({"--connect=10.0.0.1:7000"}));
  EXPECT_EQ(connect.connect_host, "10.0.0.1");
  EXPECT_EQ(connect.connect_port, 7000u);
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
  // Every pair conflicts, whatever the order.
  EXPECT_FALSE(message_of({"--shard=0/2", "--serve=0", "--workers=1"}).empty());
  EXPECT_FALSE(message_of({"--connect=h:1", "--shard=1/2"}).empty());
  EXPECT_FALSE(message_of({"--merge=a", "--connect=h:1"}).empty());
}

TEST(CampaignOptions, RejectsMalformedOperands) {
  // --shard grammar: i/N, digits only, 0 <= i < N.
  for (const char* spec : {"--shard=2", "--shard=a/b", "--shard=2/2",
                           "--shard=-1/3", "--shard=0/0", "--shard=/3"}) {
    EXPECT_FALSE(message_of({spec}).empty()) << spec;
  }
  // --connect grammar: HOST:PORT, port in [1, 65535].
  for (const char* spec :
       {"--connect=nohost", "--connect=:7000", "--connect=h:",
        "--connect=h:0", "--connect=h:65536", "--connect=h:9x"}) {
    EXPECT_FALSE(message_of({spec}).empty()) << spec;
  }
  EXPECT_FALSE(message_of({"--merge="}).empty());
  EXPECT_FALSE(message_of({"--serve=70000", "--workers=1"}).empty());
  EXPECT_FALSE(message_of({"--serve=0"}).empty());  // missing --workers
  EXPECT_FALSE(message_of({"--serve=0", "--workers=0"}).empty());
  // Ports are digits only: no sign, no whitespace.
  for (const char* spec : {"--serve=+7000", "--serve=-0", "--serve= 7000"}) {
    EXPECT_NE(message_of({spec, "--workers=1"}).find("--serve"),
              std::string::npos)
        << spec;
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
  EXPECT_FALSE(message_of({"--connect=h:1", "--front-out=d"}).empty());
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
