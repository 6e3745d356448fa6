#include "common/table.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "common/assert.hpp"
#include "common/durable_file.hpp"
#include "common/logging.hpp"

namespace aedbmls {

void TextTable::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TextTable::add_row(std::vector<std::string> row) {
  if (!header_.empty()) {
    AEDB_REQUIRE(row.size() == header_.size(), "table row width mismatch");
  }
  rows_.push_back(std::move(row));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths;
  auto grow = [&widths](const std::vector<std::string>& row) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i)
      widths[i] = std::max(widths[i], row[i].size());
  };
  if (!header_.empty()) grow(header_);
  for (const auto& row : rows_) grow(row);

  std::ostringstream os;
  auto emit = [&os, &widths](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << row[i];
      if (i + 1 < row.size())
        os << std::string(widths[i] - row[i].size() + 2, ' ');
    }
    os << '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    std::size_t total = 0;
    for (std::size_t i = 0; i < widths.size(); ++i)
      total += widths[i] + (i + 1 < widths.size() ? 2 : 0);
    os << std::string(total, '-') << '\n';
  }
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string TextTable::to_csv() const {
  std::ostringstream os;
  auto emit = [&os](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      const std::string& cell = row[i];
      const bool quote = cell.find_first_of(",\"\n") != std::string::npos;
      if (quote) {
        os << '"';
        for (char c : cell) {
          if (c == '"') os << '"';
          os << c;
        }
        os << '"';
      } else {
        os << cell;
      }
      if (i + 1 < row.size()) os << ',';
    }
    os << '\n';
  };
  if (!header_.empty()) emit(header_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string format_double(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  // Atomic tmp+rename, so a crash mid-write can never leave a torn
  // result table (same policy as every campaign artifact).
  if (!io::atomic_write_file(path, content)) {
    log_warn("cannot write: ", path);
    return false;
  }
  return true;
}

}  // namespace aedbmls
