#pragma once

/// AlgorithmRegistry — self-registering algorithm factories.
///
/// Replaces the old string-switch `make_algorithm`: each entry carries a
/// name, a one-line description and a factory
/// `(const Scale&, const moo::EvaluationEngine*) -> unique_ptr<Algorithm>`,
/// so ablation variants and future algorithms register in their own
/// translation units (see builtin_moea.cpp / builtin_mls.cpp) instead of
/// growing a central if-chain.  Registration is idempotent per name; the
/// last registration wins, which lets tests and downstream binaries shadow
/// a builtin with an instrumented variant.
///
/// `create` throws `std::invalid_argument` listing the registered names on
/// an unknown algorithm — the registry is the single source of truth the
/// CLI validation and the --help style listings read from.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "moo/algorithms/algorithm.hpp"
#include "moo/core/evaluation_engine.hpp"

namespace aedbmls::expt {

struct Scale;

class AlgorithmRegistry {
 public:
  using Factory = std::function<std::unique_ptr<moo::Algorithm>(
      const Scale&, const moo::EvaluationEngine*)>;

  struct Entry {
    std::string name;
    std::string description;
    Factory factory;
  };

  /// The process-wide registry, with the builtin algorithms registered.
  [[nodiscard]] static AlgorithmRegistry& instance();

  /// Registers (or replaces) an entry.
  void add(Entry entry);

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Entry for `name`, or null when unregistered.
  [[nodiscard]] const Entry* find(const std::string& name) const;

  /// Instantiates `name` configured for `scale`.  `evaluator` batches the
  /// generational EAs' population evaluations through an `EvaluationEngine`
  /// when non-null (the paper ran them serially; see EXPERIMENTS.md for
  /// where we deviate and why).  Throws `std::invalid_argument` listing the
  /// registered names when `name` is unknown.
  [[nodiscard]] std::unique_ptr<moo::Algorithm> create(
      const std::string& name, const Scale& scale,
      const moo::EvaluationEngine* evaluator = nullptr) const;

  /// Registered names, registration order.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  AlgorithmRegistry() = default;
  std::vector<Entry> entries_;
};

/// The three contenders of the paper's §VI.
[[nodiscard]] const std::vector<std::string>& paper_algorithms();

}  // namespace aedbmls::expt
