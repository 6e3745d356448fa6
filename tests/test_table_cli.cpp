#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

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

CliArgs args_of(std::vector<const char*> words) {
  words.insert(words.begin(), "prog");
  return CliArgs(static_cast<int>(words.size()), words.data());
}

constexpr std::string_view kRunFlags[] = {"runs", "alpha"};
constexpr std::string_view kVerboseFlag[] = {"verbose"};

TEST(Cli, FallsBackOnlyWhenAbsent) {
  // A malformed operand used to give the fallback too, so `--seed=abc`
  // silently ran the default seed; now it throws naming the flag.
  const CliArgs args = args_of({"--bad=xyz"});
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(args.get("missing", "x"), "x");
  const auto message_of = [](const auto& read) -> std::string {
    try {
      read();
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "";
  };
  EXPECT_EQ(message_of([&] { (void)args.get_int("bad", 7); }),
            "--bad needs a non-negative integer, digits only (got 'xyz')");
  EXPECT_EQ(message_of([&] { (void)args.get_double("bad", 1.5); }),
            "--bad needs a finite number (got 'xyz')");
}

TEST(Cli, IntegerOperandsAreDigitsOnly) {
  EXPECT_EQ(args_of({"--n=007"}).get_int("n", 1), 7);
  EXPECT_EQ(args_of({"--n=9223372036854775807"}).get_int("n", 1),
            9223372036854775807L);
  // A sign, whitespace, a trailing letter, an empty or bare operand, and a
  // value past a long: `--network=-1` once ran network 2^64 - 1.
  for (const char* word : {"--n=-1", "--n=+5", "--n= 5", "--n=4O", "--n=",
                           "--n", "--n=0x10", "--n=9223372036854775808"}) {
    EXPECT_THROW((void)args_of({word}).get_int("n", 1), std::invalid_argument)
        << word;
  }
}

TEST(Cli, DoubleOperandsAreOneFiniteNumber) {
  EXPECT_DOUBLE_EQ(args_of({"--x=0.2"}).get_double("x", 0.0), 0.2);
  EXPECT_DOUBLE_EQ(args_of({"--x", "-90"}).get_double("x", 0.0), -90.0);
  EXPECT_DOUBLE_EQ(args_of({"--x=1e3"}).get_double("x", 0.0), 1000.0);
  for (const char* word : {"--x=abc", "--x=1.5x", "--x=", "--x", "--x= 1",
                           "--x=inf", "--x=nan", "--x=1e400"}) {
    EXPECT_THROW((void)args_of({word}).get_double("x", 0.0),
                 std::invalid_argument)
        << word;
  }
}

TEST(CheckFlags, AcceptsEveryOperandFormOfADeclaredFlag) {
  // Returning is the pass: a rejection exits the process.
  check_flags_or_exit(args_of({"--runs", "30", "--alpha=0.2", "--verbose"}),
                      {kRunFlags, kVerboseFlag});
  check_flags_or_exit(args_of({}), {});
}

TEST(CheckFlagsDeathTest, RejectsUndeclaredInputByName) {
  const struct {
    std::vector<const char*> words;
    const char* named;
  } cases[] = {
      {{"--runs=3", "--evlas=8"}, "unknown flag --evlas;"},
      {{"--verbose=1"}, "unknown flag --verbose;"},
      {{"-runs=9"}, "unexpected argument '-runs=9'"},
      {{"--runs", "3", "urban-canyon"}, "unexpected argument 'urban-canyon'"},
      {{"urban-canyon", "--evlas=8"}, "unexpected argument 'urban-canyon'"},
  };
  for (const auto& [words, named] : cases) {
    EXPECT_EXIT(check_flags_or_exit(args_of(words), {kRunFlags}),
                ::testing::ExitedWithCode(2), named)
        << named;
  }
}

TEST(CheckFlagsDeathTest, MessageListsTheDeclaredFlags) {
  EXPECT_EXIT(check_flags_or_exit(args_of({"--x"}), {kRunFlags, kVerboseFlag}),
              ::testing::ExitedWithCode(2),
              "unknown flag --x; this program takes --runs --alpha --verbose");
  EXPECT_EXIT(check_flags_or_exit(args_of({"stray"}), {}),
              ::testing::ExitedWithCode(2), "this program takes no flags");
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

TEST(WriteTextFile, RoundTrips) {
  const std::string path = ::testing::TempDir() + "/aedb_table_test.txt";
  EXPECT_TRUE(write_text_file(path, "hello"));
}

}  // namespace
}  // namespace aedbmls
