#include "common/cli.hpp"

#include <charconv>
#include <cstdlib>
#include <stdexcept>

namespace aedbmls {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return options_.count(name) > 0;
}

std::string CliArgs::get(const std::string& name, const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

long CliArgs::get_int(const std::string& name, long fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  return (end != nullptr && *end == '\0') ? v : fallback;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  return (end != nullptr && *end == '\0') ? v : fallback;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string token;
  for (const char c : csv) {
    if (c == ',') {
      if (!token.empty()) out.push_back(std::move(token));
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  if (!token.empty()) out.push_back(std::move(token));
  return out;
}

std::optional<long> parse_positive_long(const std::string& text) {
  long value = 0;
  std::size_t consumed = 0;
  try {
    value = std::stol(text, &consumed);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (text.empty() || consumed != text.size() || value <= 0) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

std::string env_or(const std::string& name, const std::string& fallback) {
  const char* v = std::getenv(name.c_str());
  return v == nullptr ? fallback : std::string(v);
}

long env_or_int(const std::string& name, long fallback) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const long out = std::strtol(v, &end, 10);
  return (end != nullptr && *end == '\0') ? out : fallback;
}

}  // namespace aedbmls
