#pragma once

/// Plain-text and CSV table rendering for the experiment harnesses.
///
/// Every bench prints the rows/series the paper reports; `TextTable` keeps
/// that output aligned and grep-able, and `write_csv` mirrors it to files
/// for downstream plotting.

#include <iosfwd>
#include <string>
#include <vector>

namespace aedbmls {

/// Column-aligned text table.  Cells are strings; `format_double` formats
/// numbers with a fixed precision.
class TextTable {
 public:
  /// Sets the header row.
  void set_header(std::vector<std::string> header);

  /// Appends a data row (must match header size when header was set).
  void add_row(std::vector<std::string> row);

  /// Renders with column alignment and a header separator.
  [[nodiscard]] std::string to_string() const;

  /// Renders as CSV (comma-separated, quoted only when needed).
  [[nodiscard]] std::string to_csv() const;

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given precision (fixed notation).
[[nodiscard]] std::string format_double(double v, int precision = 4);

/// Writes content to a file, creating parent directories if needed.
/// Returns false (and logs) on failure.
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace aedbmls
