#include "common/fault.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <sstream>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/rng.hpp"

namespace aedbmls::fault {

namespace detail {
std::atomic<bool> g_active{false};
}  // namespace detail

namespace {

// The registry of valid fault sites, kept sorted.  Adding a site to the
// codebase means adding it here; plans naming anything else are rejected
// at configure time.
constexpr std::string_view kKnownSites[] = {
    // a driver or shard sleeps `value` ms before each cell
    "cell.stall_ms",
    // the run leaves its campaign store or shard file unwritten
    "io.cache.write_fail",
    // an append to the campaign store or a shard file torn mid-record
    "io.journal.torn_tail",
};

constexpr std::uint64_t kDefaultSeed = 0x5eedfa017ULL;  // arbitrary

enum class TriggerKind { kNth, kAfter, kEvery, kProb, kAlways, kOff };

struct SiteConfig {
  TriggerKind kind = TriggerKind::kOff;
  std::uint64_t n = 0;  // nth/after/every parameter
  double probability = 0.0;
  double value = 0.0;
  bool has_value = false;
  std::atomic<std::uint64_t> hit_count{0};
};

struct Plan {
  std::uint64_t seed = kDefaultSeed;
  bool seed_explicit = false;
  // std::less<> enables find() on string_view without allocating.
  std::map<std::string, std::unique_ptr<SiteConfig>, std::less<>> sites;
};

std::shared_mutex g_mutex;
Plan g_plan;

bool known_site(std::string_view name) {
  return std::binary_search(std::begin(kKnownSites), std::end(kKnownSites),
                            name);
}

[[noreturn]] void bad_spec(const std::string& entry, const std::string& what) {
  throw std::invalid_argument(
      "fault plan: " + what + " in entry '" + entry +
      "' (grammar: 'seed=U64' or 'SITE=nth:N|after:N|every:K|prob:P|always|"
      "off[,value=NUMBER]', entries joined with ';')");
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

std::uint64_t parse_count(std::string_view text, const std::string& entry,
                          const std::string& what) {
  const std::optional<std::uint64_t> value = parse_u64(text);
  if (!value) bad_spec(entry, what);
  return *value;
}

double parse_number(std::string_view text, const std::string& entry,
                    const std::string& what) {
  const std::string token(text);
  std::size_t used = 0;
  double result = 0.0;
  try {
    result = std::stod(token, &used);
  } catch (const std::exception&) {
    bad_spec(entry, what);
  }
  if (used != token.size() || !std::isfinite(result)) bad_spec(entry, what);
  return result;
}

void parse_trigger(std::string_view text, const std::string& entry,
                   SiteConfig& site) {
  if (text == "always") {
    site.kind = TriggerKind::kAlways;
  } else if (text == "off") {
    site.kind = TriggerKind::kOff;
  } else if (text.rfind("nth:", 0) == 0) {
    site.kind = TriggerKind::kNth;
    site.n = parse_count(text.substr(4), entry, "bad nth: count");
    if (site.n == 0) bad_spec(entry, "nth: count must be >= 1");
  } else if (text.rfind("after:", 0) == 0) {
    site.kind = TriggerKind::kAfter;
    site.n = parse_count(text.substr(6), entry, "bad after: count");
  } else if (text.rfind("every:", 0) == 0) {
    site.kind = TriggerKind::kEvery;
    site.n = parse_count(text.substr(6), entry, "bad every: period");
    if (site.n == 0) bad_spec(entry, "every: period must be >= 1");
  } else if (text.rfind("prob:", 0) == 0) {
    site.kind = TriggerKind::kProb;
    site.probability = parse_number(text.substr(5), entry, "bad probability");
    if (site.probability < 0.0 || site.probability > 1.0) {
      bad_spec(entry, "probability must be in [0, 1]");
    }
  } else {
    bad_spec(entry, "unknown trigger '" + std::string(text) + "'");
  }
}

Plan parse_plan(const std::string& spec) {
  Plan plan;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t stop = spec.find(';', start);
    if (stop == std::string::npos) stop = spec.size();
    const std::string entry(trim(spec.substr(start, stop - start)));
    start = stop + 1;
    if (entry.empty()) continue;

    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      bad_spec(entry, "expected NAME=...");
    }
    const std::string_view name = trim(std::string_view(entry).substr(0, eq));
    const std::string_view rest = trim(std::string_view(entry).substr(eq + 1));

    if (name == "seed") {
      plan.seed = parse_count(rest, entry, "bad seed");
      plan.seed_explicit = true;
      continue;
    }
    if (!known_site(name)) {
      std::string all;
      for (std::string_view site : kKnownSites) {
        if (!all.empty()) all += ", ";
        all += site;
      }
      bad_spec(entry, "unknown fault site '" + std::string(name) +
                          "' (known sites: " + all + ")");
    }
    if (plan.sites.count(std::string(name)) != 0) {
      bad_spec(entry, "duplicate site");
    }

    auto site = std::make_unique<SiteConfig>();
    const std::size_t comma = rest.find(',');
    parse_trigger(trim(rest.substr(0, comma)), entry, *site);
    if (comma != std::string_view::npos) {
      const std::string_view extra = trim(rest.substr(comma + 1));
      if (extra.rfind("value=", 0) != 0) {
        bad_spec(entry, "expected ',value=NUMBER' after the trigger");
      }
      site->value = parse_number(extra.substr(6), entry, "bad value");
      site->has_value = true;
    }
    plan.sites.emplace(std::string(name), std::move(site));
  }
  return plan;
}

bool plan_has_live_site(const Plan& plan) {
  for (const auto& [name, site] : plan.sites) {
    if (site->kind != TriggerKind::kOff) return true;
  }
  return false;
}

std::string format_number(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

std::string describe_locked(const Plan& plan) {
  if (plan.sites.empty()) return "";
  std::string spec;
  if (plan.seed_explicit) spec = "seed=" + std::to_string(plan.seed);
  for (const auto& [name, site] : plan.sites) {
    if (!spec.empty()) spec += ';';
    spec += name;
    spec += '=';
    switch (site->kind) {
      case TriggerKind::kNth:
        spec += "nth:" + std::to_string(site->n);
        break;
      case TriggerKind::kAfter:
        spec += "after:" + std::to_string(site->n);
        break;
      case TriggerKind::kEvery:
        spec += "every:" + std::to_string(site->n);
        break;
      case TriggerKind::kProb:
        spec += "prob:" + format_number(site->probability);
        break;
      case TriggerKind::kAlways:
        spec += "always";
        break;
      case TriggerKind::kOff:
        spec += "off";
        break;
    }
    if (site->has_value) spec += ",value=" + format_number(site->value);
  }
  return spec;
}

std::uint64_t hash_site_name(std::string_view name) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (char c : name) h = hash_combine(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace

namespace detail {

bool fire_slow(std::string_view site, double* value) {
  std::shared_lock lock(g_mutex);
  const auto it = g_plan.sites.find(site);
  if (it == g_plan.sites.end()) return false;
  SiteConfig& config = *it->second;
  const std::uint64_t count =
      config.hit_count.fetch_add(1, std::memory_order_relaxed) + 1;
  bool fired = false;
  switch (config.kind) {
    case TriggerKind::kNth:
      fired = count == config.n;
      break;
    case TriggerKind::kAfter:
      fired = count > config.n;
      break;
    case TriggerKind::kEvery:
      fired = count % config.n == 0;
      break;
    case TriggerKind::kProb: {
      // Counter-keyed hash draw: occurrence #count of this site fires iff
      // u(seed, site, count) < P.  Pure function of the plan string.
      const std::uint64_t draw =
          mix64(g_plan.seed ^ hash_site_name(site) ^ mix64(count));
      const double u =
          static_cast<double>(draw >> 11) * 0x1.0p-53;  // [0, 1)
      fired = u < config.probability;
      break;
    }
    case TriggerKind::kAlways:
      fired = true;
      break;
    case TriggerKind::kOff:
      fired = false;
      break;
  }
  if (fired && value != nullptr) *value = config.value;
  return fired;
}

}  // namespace detail

void configure(const std::string& spec) {
  Plan plan = parse_plan(spec);  // throws before touching the active plan
  const bool live = plan_has_live_site(plan);
  std::unique_lock lock(g_mutex);
  g_plan = std::move(plan);
  detail::g_active.store(live, std::memory_order_relaxed);
}

void clear() { configure(""); }

std::string describe() {
  std::shared_lock lock(g_mutex);
  return describe_locked(g_plan);
}

std::uint64_t hits(std::string_view site) {
  std::shared_lock lock(g_mutex);
  const auto it = g_plan.sites.find(site);
  if (it == g_plan.sites.end()) return 0;
  return it->second->hit_count.load(std::memory_order_relaxed);
}

std::vector<std::string_view> known_sites() {
  return {std::begin(kKnownSites), std::end(kKnownSites)};
}

ScopedPlan::ScopedPlan(const std::string& spec) : previous_(describe()) {
  configure(spec);
}

ScopedPlan::~ScopedPlan() { configure(previous_); }

}  // namespace aedbmls::fault
