#pragma once

/// Tiny command-line parser shared by the benches and examples.  Supports
/// `--key=value`, `--key value` and boolean `--flag`.  Every binary checks
/// its arguments against the flags it declares (`check_flags_or_exit`)
/// before it does any work, so a mistyped flag exits 2 instead of running
/// a different experiment.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace aedbmls {

/// The names (without "--") of the flags one helper or binary reads.
using FlagList = std::span<const std::string_view>;

/// Parsed command line.
class CliArgs {
 public:
  /// Parses argv.  Every option is kept, and so is every argument that is
  /// neither an option nor an option's value, for `check_flags_or_exit`.
  CliArgs(int argc, const char* const* argv);

  /// True if `--name` was present (with or without value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// String value of `--name`, or `fallback` when absent.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const;

  /// Integer value of `--name` (decimal digits only, as `parse_u64`), or
  /// `fallback` when absent.  Throws `std::invalid_argument` naming the
  /// flag when the operand is anything else or does not fit a long.
  [[nodiscard]] long get_int(const std::string& name, long fallback) const;

  /// Double value of `--name`, or `fallback` when absent.  Throws
  /// `std::invalid_argument` naming the flag unless the whole operand is
  /// one finite number.
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;

 private:
  friend void check_flags_or_exit(const CliArgs&,
                                  std::initializer_list<FlagList>);

  std::map<std::string, std::string> options_;
  std::vector<std::string> strays_;  ///< arguments that are no `--option`
};

/// The one check of a binary's input, which every bench and example makes
/// before it prints anything: the first argument that is no `--flag` (a
/// stray word, or a single-dash `-seed=9`) or, failing that, the first
/// `--flag` that none of `lists` declares is printed to stderr with the
/// declared flags, and the process exits 2.  A binary's lists are those of
/// the helpers it calls plus its own.
void check_flags_or_exit(const CliArgs& args,
                         std::initializer_list<FlagList> lists);

/// Splits a comma-separated list into its non-empty tokens, in order
/// ("a,,b" -> {"a", "b"}).  The common format of list-valued options.
[[nodiscard]] std::vector<std::string> split_csv(const std::string& csv);

/// Strictly parses `text` as an unsigned 64-bit integer: decimal digits
/// only (no sign, no whitespace), the whole string consumed, no overflow.
/// nullopt otherwise.  The one parser behind every decoded count, index,
/// seed and integer operand — `std::stoull` accepts a sign and wraps "-1"
/// to 2^64 - 1.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text);

}  // namespace aedbmls
