#include <gtest/gtest.h>

#include "common/cli.hpp"
#include "common/table.hpp"

namespace aedbmls {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable table;
  table.set_header({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"longer", "22"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TextTable, CsvEscapesSpecials) {
  TextTable table;
  table.set_header({"a", "b"});
  table.add_row({"plain", "with,comma"});
  table.add_row({"quote\"inside", "x"});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
}

TEST(Cli, ParsesKeyValueForms) {
  // Note: a bare option directly followed by a non-option consumes it as its
  // value, so `--verbose` goes last.
  const char* argv[] = {"prog", "--alpha=0.2", "--runs", "30", "positional",
                        "--verbose"};
  const CliArgs args(6, argv);
  EXPECT_TRUE(args.has("alpha"));
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 0.2);
  EXPECT_EQ(args.get_int("runs", 0), 30);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("positional"));
}

TEST(Cli, FallbacksWhenAbsentOrInvalid) {
  const char* argv[] = {"prog", "--bad=xyz"};
  const CliArgs args(2, argv);
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_EQ(args.get_int("bad", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("bad", 1.5), 1.5);
  EXPECT_EQ(args.get("missing", "x"), "x");
}

TEST(Cli, ParseU64TakesDigitsOnly) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("007"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615u);
  for (const char* text : {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "1e3",
                           "18446744073709551616"}) {
    EXPECT_FALSE(parse_u64(text).has_value()) << "'" << text << "'";
  }
}

TEST(Env, ReadsWithFallback) {
  ::setenv("AEDB_TEST_ENV_VAR", "41", 1);
  EXPECT_EQ(env_or_int("AEDB_TEST_ENV_VAR", 0), 41);
  EXPECT_EQ(env_or("AEDB_TEST_ENV_VAR", ""), "41");
  ::unsetenv("AEDB_TEST_ENV_VAR");
  EXPECT_EQ(env_or_int("AEDB_TEST_ENV_VAR", 9), 9);
}

TEST(WriteTextFile, RoundTrips) {
  const std::string path = ::testing::TempDir() + "/aedb_table_test.txt";
  EXPECT_TRUE(write_text_file(path, "hello"));
}

}  // namespace
}  // namespace aedbmls
