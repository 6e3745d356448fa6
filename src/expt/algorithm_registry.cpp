#include "expt/algorithm_registry.hpp"

#include <mutex>
#include <sstream>
#include <stdexcept>

namespace aedbmls::expt {
namespace detail {

// Defined in the builtin registration translation units.  Calling them from
// `instance()` both guarantees registration order is independent of static
// initialisation order and anchors those object files into the link when
// the registry is archived into a static library.
void register_builtin_moea_algorithms(AlgorithmRegistry& registry);
void register_builtin_mls_algorithms(AlgorithmRegistry& registry);

}  // namespace detail

AlgorithmRegistry& AlgorithmRegistry::instance() {
  static AlgorithmRegistry registry;
  static std::once_flag builtins_once;
  std::call_once(builtins_once, [] {
    detail::register_builtin_mls_algorithms(registry);
    detail::register_builtin_moea_algorithms(registry);
  });
  return registry;
}

void AlgorithmRegistry::add(Entry entry) {
  for (Entry& existing : entries_) {
    if (existing.name == entry.name) {
      existing = std::move(entry);
      return;
    }
  }
  entries_.push_back(std::move(entry));
}

bool AlgorithmRegistry::contains(const std::string& name) const {
  return find(name) != nullptr;
}

const AlgorithmRegistry::Entry* AlgorithmRegistry::find(
    const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

std::unique_ptr<moo::Algorithm> AlgorithmRegistry::create(
    const std::string& name, const Scale& scale,
    const moo::EvaluationEngine* evaluator) const {
  if (const Entry* entry = find(name)) {
    return entry->factory(scale, evaluator);
  }
  std::ostringstream os;
  os << "unknown algorithm '" << name << "'; registered algorithms:";
  for (const Entry& entry : entries_) os << ' ' << entry.name;
  throw std::invalid_argument(os.str());
}

std::vector<std::string> AlgorithmRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.name);
  return out;
}

const std::vector<std::string>& paper_algorithms() {
  static const std::vector<std::string> names{"CellDE", "NSGAII", "AEDB-MLS"};
  return names;
}

}  // namespace aedbmls::expt
