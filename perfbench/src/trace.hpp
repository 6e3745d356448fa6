#pragma once

/// Tracing for the traced run: an in-memory span recorder, and a
/// forwarding `moo::Problem` decorator that puts a span around every call
/// the optimisers make into the `aedb` layer.
///
/// Spans are recorded from the benchmark's own files, around calls into
/// each layer's public functions; nothing inside the program is changed.
/// They hold name, start, end, parent and thread, stay in memory, and are
/// written as Chrome trace-event JSON when the run ends.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "aedb/tuning_problem.hpp"
#include "moo/core/problem.hpp"

namespace perfbench {

namespace aedb = aedbmls::aedb;
namespace moo = aedbmls::moo;

/// Monotonic nanoseconds (steady clock).
[[nodiscard]] std::int64_t now_ns();

/// CPU time consumed by the calling thread, nanoseconds.
[[nodiscard]] std::int64_t thread_cpu_ns();

/// Small dense id of the calling OS thread, assigned on first use.
[[nodiscard]] std::uint32_t thread_index();

struct Span {
  const char* name = "";  ///< string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the recorder, -1 = root
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  /// Opens a span.  Its parent is the innermost span still open on the
  /// calling thread, or `fallback_parent` when the thread has none (work
  /// fanned out to other threads names its parent explicitly).
  std::int64_t open(const char* name, std::int64_t fallback_parent = -1);
  void close(std::int64_t id);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Chrome trace-event JSON (viewable in Perfetto); false on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it a no-op (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int64_t fallback_parent = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(name, fallback_parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::int64_t id_;
};

/// One timed call into the `aedb` layer (a single solution).
struct EvalSample {
  std::uint32_t tier = 0;      ///< effective fidelity tier
  std::uint32_t thread = 0;    ///< `thread_index()` of the evaluating thread
  std::uint32_t scenario = 0;  ///< index into `EvalLog::scenarios()`
  bool cold = false;           ///< first evaluation seen on this thread
  double ms = 0.0;             ///< wall time
  double cpu_ms = 0.0;         ///< the evaluating thread's CPU time
};

/// Everything the decorators of one repetition observed: per-evaluation
/// samples plus the workload's own evaluated full-fidelity solutions, which
/// the layer probes replay.  Thread-safe.
class EvalLog {
 public:
  struct Scenario {
    aedb::AedbTuningProblem::Config config;  ///< as normalised by the problem
    std::vector<moo::Solution> solutions;    ///< full-tier, capped
  };

  /// Index of `problem`'s scenario (same ensemble and node count), added
  /// on first sight.
  std::uint32_t scenario_of(const aedb::AedbTuningProblem& problem);

  void record(const EvalSample& sample, const moo::Solution* full_tier);

  /// True the first time `thread` asks (per log).
  bool first_on_thread(std::uint32_t thread);

  [[nodiscard]] std::vector<EvalSample> samples() const;
  [[nodiscard]] std::vector<Scenario> scenarios() const;

 private:
  static constexpr std::size_t kSolutionCap = 4096;
  mutable std::mutex mutex_;
  std::vector<EvalSample> samples_;
  std::vector<Scenario> scenarios_;
  std::vector<std::uint32_t> seen_threads_;
};

/// Forwarding decorator: every virtual goes to `inner` unchanged, so the
/// optimiser's results are identical; evaluation calls are additionally
/// timed into `log` and recorded as spans under `parent_span`.  Batches are
/// forwarded one solution at a time (the `Problem` contract makes results
/// independent of batch composition) so each evaluation gets its own span.
class TracedProblem final : public aedbmls::moo::Problem {
 public:
  TracedProblem(const aedb::AedbTuningProblem& inner, Tracer& tracer,
                EvalLog& log, std::int64_t parent_span);

  [[nodiscard]] std::size_t dimensions() const override;
  [[nodiscard]] std::size_t objective_count() const override;
  [[nodiscard]] std::pair<double, double> bounds(std::size_t dim) const override;
  [[nodiscard]] Result evaluate(const std::vector<double>& x) const override;
  [[nodiscard]] std::size_t fidelity_levels() const override;
  [[nodiscard]] std::size_t screening_tier() const override;
  [[nodiscard]] Result evaluate_at(const std::vector<double>& x,
                                   std::size_t tier) const override;
  void evaluate_batch(std::span<aedbmls::moo::Solution> batch) const override;
  [[nodiscard]] std::string name() const override;

  /// Seconds spent inside evaluation calls so far, summed over threads.
  [[nodiscard]] double eval_seconds() const noexcept {
    return static_cast<double>(eval_ns_.load()) / 1e9;
  }

 private:
  void note(std::int64_t start_ns, std::int64_t start_cpu_ns, std::size_t tier,
            const aedbmls::moo::Solution* full_tier) const;

  const aedb::AedbTuningProblem& inner_;
  Tracer& tracer_;
  EvalLog& log_;
  std::int64_t parent_span_;
  std::uint32_t scenario_;
  mutable std::atomic<std::int64_t> eval_ns_{0};
};

}  // namespace perfbench
