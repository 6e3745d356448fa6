#include "common/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace aedbmls {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      strays_.push_back(std::move(arg));
      continue;
    }
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
  if (!has(name)) return fallback;
  const std::string text = get(name);
  const auto value = parse_u64(text);
  if (!value ||
      *value > static_cast<std::uint64_t>(std::numeric_limits<long>::max())) {
    throw std::invalid_argument("--" + name +
                                " needs a non-negative integer, digits only "
                                "(got '" + text + "')");
  }
  return static_cast<long>(*value);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  if (!has(name)) return fallback;
  const std::string text = get(name);
  const char* end = text.data() + text.size();
  double value = 0.0;
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || !std::isfinite(value)) {
    throw std::invalid_argument("--" + name + " needs a finite number (got '" +
                                text + "')");
  }
  return value;
}

void check_flags_or_exit(const CliArgs& args,
                         std::initializer_list<FlagList> lists) {
  std::string listing;
  for (const FlagList list : lists) {
    for (const std::string_view flag : list) listing.append(" --").append(flag);
  }
  const auto declared = [&lists](const std::string& name) {
    return std::any_of(lists.begin(), lists.end(), [&name](FlagList list) {
      return std::find(list.begin(), list.end(), name) != list.end();
    });
  };
  std::string problem;
  if (!args.strays_.empty()) {
    problem = "unexpected argument '" + args.strays_.front() +
              "' (flags are spelled --name=value)";
  }
  for (const auto& option : args.options_) {
    if (problem.empty() && !declared(option.first)) {
      problem = "unknown flag --" + option.first;
    }
  }
  if (problem.empty()) return;
  std::fprintf(stderr, "error: %s; this program takes%s\n", problem.c_str(),
               listing.empty() ? " no flags" : listing.c_str());
  std::exit(2);
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

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

}  // namespace aedbmls
