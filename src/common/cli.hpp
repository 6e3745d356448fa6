#pragma once

/// Tiny command-line/environment option parser shared by the benches and
/// examples.  Supports `--key=value`, `--key value` and boolean `--flag`.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace aedbmls {

/// Parsed command line.
class CliArgs {
 public:
  /// Parses argv; unknown options are kept (benches decide what to accept)
  /// and non-option arguments are ignored.
  CliArgs(int argc, const char* const* argv);

  /// True if `--name` was present (with or without value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// String value of `--name`, or `fallback` when absent.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const;

  /// Integer value of `--name`, or `fallback` when absent/invalid.
  [[nodiscard]] long get_int(const std::string& name, long fallback) const;

  /// Double value of `--name`, or `fallback` when absent/invalid.
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;

 private:
  std::map<std::string, std::string> options_;
};

/// Splits a comma-separated list into its non-empty tokens, in order
/// ("a,,b" -> {"a", "b"}).  The common format of list-valued options.
[[nodiscard]] std::vector<std::string> split_csv(const std::string& csv);

/// Strictly parses `text` as a positive integer: the whole string must be
/// consumed and the value must be > 0 and fit a long.  nullopt otherwise.
/// The shared validation for flags where a silent fallback would run a
/// different experiment than the user asked for.
[[nodiscard]] std::optional<long> parse_positive_long(const std::string& text);

/// Strictly parses `text` as an unsigned 64-bit integer: decimal digits
/// only (no sign, no whitespace), the whole string consumed, no overflow.
/// nullopt otherwise.  The one parser behind every decoded count, index
/// and seed — `std::stoull` accepts a sign and wraps "-1" to 2^64 - 1.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text);

/// Environment variable as string, or `fallback` when unset.
[[nodiscard]] std::string env_or(const std::string& name, const std::string& fallback);

/// Environment variable as long, or `fallback` when unset/invalid.
[[nodiscard]] long env_or_int(const std::string& name, long fallback);

}  // namespace aedbmls
