// CampaignOptions — the unified campaign CLI surface: table-driven flag
// parsing, distribution-mode mutual exclusion, durable telemetry dumps
// and hardened --cost-priors loading.

#include "expt/campaign_options.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
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

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(CampaignOptions, DefaultsToLocalMode) {
  const CampaignOptions options = parse_campaign_options(args_of({}));
  EXPECT_EQ(options.mode, CampaignMode::kLocal);
  EXPECT_FALSE(options.cache_dir.has_value());
  EXPECT_FALSE(options.progress);
  EXPECT_TRUE(options.telemetry_out.empty());
  EXPECT_TRUE(options.front_out.empty());
  EXPECT_TRUE(options.cost_priors.empty());
  EXPECT_FALSE(options.fault_plan.has_value());
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

  // The dump is CRC-trailed and atomic-rename durable; the loader strips
  // and verifies the trailer, then resolves the gauge means.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  EXPECT_NE(bytes.find("#crc32 "), std::string::npos);

  const auto priors = load_cost_priors(path);
  ASSERT_EQ(priors.count("d100"), 1u);
  EXPECT_DOUBLE_EQ(priors.at("d100"), 2.0);
}

TEST(CampaignOptions, CostPriorsRejectsTruncatedDump) {
  TempDir dir;
  telemetry::Snapshot snapshot;
  snapshot.gauges["scenario.d100.wall_s"].observe(1.0);
  const std::string path = dir.file("dump.telemetry");
  (void)write_telemetry_file(path, snapshot);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  // A torn write that kept the trailer line boundary: drop the first line
  // but keep the trailer — the CRC no longer matches what it covers.
  const std::string truncated = dir.file("truncated.telemetry");
  write_raw(truncated, bytes.substr(bytes.find('\n') + 1));
  EXPECT_THROW((void)load_cost_priors(truncated), std::invalid_argument);
}

TEST(CampaignOptions, CostPriorsRejectsNonNumericGauge) {
  TempDir dir;
  const std::string path = dir.file("bad_gauge.telemetry");
  write_raw(path, "tgauge scenario.d100.wall_s 1 banana 1.0 1.0\n");
  EXPECT_THROW((void)load_cost_priors(path), std::invalid_argument);
  // Same for a malformed line shape.
  const std::string short_line = dir.file("short.telemetry");
  write_raw(short_line, "tgauge scenario.d100.wall_s 1\n");
  EXPECT_THROW((void)load_cost_priors(short_line), std::invalid_argument);
}

TEST(CampaignOptions, CostPriorsRejectsUnknownScenarioKey) {
  TempDir dir;
  const std::string path = dir.file("unknown.telemetry");
  write_raw(path, "tgauge scenario.not-a-scenario.wall_s 1 2.0 2.0 2.0\n");
  try {
    (void)load_cost_priors(path);
    FAIL() << "unknown scenario key must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("not-a-scenario"),
              std::string::npos)
        << error.what();
  }
  // Catalog keys (static and dynamic d<N> densities) load fine without a
  // trailer — hand-written priors stay supported.
  const std::string ok = dir.file("ok.telemetry");
  write_raw(ok,
            "tgauge scenario.d250.wall_s 2 6.0 2.0 4.0\n"
            "tgauge scenario.sparse-wide.wall_s 1 9.0 9.0 9.0\n");
  const auto priors = load_cost_priors(ok);
  EXPECT_DOUBLE_EQ(priors.at("d250"), 3.0);
  EXPECT_DOUBLE_EQ(priors.at("sparse-wide"), 9.0);
}

TEST(CampaignOptions, CostPriorsRejectsMissingFile) {
  EXPECT_THROW((void)load_cost_priors("/nonexistent/priors.telemetry"),
               std::invalid_argument);
}

}  // namespace
}  // namespace aedbmls::expt
