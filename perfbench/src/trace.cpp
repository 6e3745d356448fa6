#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <fstream>

namespace perfbench {
namespace {

/// Spans currently open on this thread, innermost last.
thread_local std::vector<std::int64_t> t_open_spans;

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

std::int64_t Tracer::open(const char* name, std::int64_t fallback_parent) {
  Span span;
  span.name = name;
  span.parent = t_open_spans.empty() ? fallback_parent : t_open_spans.back();
  span.thread = thread_index();
  span.start_ns = now_ns();
  std::int64_t id = 0;
  {
    const std::lock_guard lock(mutex_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(span);
  }
  t_open_spans.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id) {
  const std::int64_t end = now_ns();
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
  const std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard lock(mutex_);
  return spans_;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::int64_t origin = all.empty() ? 0 : all.front().start_ns;
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << static_cast<double>(s.start_ns - origin) / 1e3
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::uint32_t EvalLog::scenario_of(const aedb::AedbTuningProblem& problem) {
  const auto& net = problem.config().scenario.network;
  const std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < scenarios_.size(); ++i) {
    const auto& other = scenarios_[i].config.scenario.network;
    if (other.seed == net.seed && other.node_count == net.node_count &&
        other.area_width == net.area_width &&
        other.area_height == net.area_height) {
      return static_cast<std::uint32_t>(i);
    }
  }
  scenarios_.push_back({problem.config(), {}});
  return static_cast<std::uint32_t>(scenarios_.size() - 1);
}

void EvalLog::record(const EvalSample& sample, const moo::Solution* full_tier) {
  const std::lock_guard lock(mutex_);
  samples_.push_back(sample);
  auto& kept = scenarios_[sample.scenario].solutions;
  if (full_tier != nullptr && kept.size() < kSolutionCap) {
    kept.push_back(*full_tier);
  }
}

bool EvalLog::first_on_thread(std::uint32_t thread) {
  const std::lock_guard lock(mutex_);
  if (std::find(seen_threads_.begin(), seen_threads_.end(), thread) !=
      seen_threads_.end()) {
    return false;
  }
  seen_threads_.push_back(thread);
  return true;
}

std::vector<EvalSample> EvalLog::samples() const {
  const std::lock_guard lock(mutex_);
  return samples_;
}

std::vector<EvalLog::Scenario> EvalLog::scenarios() const {
  const std::lock_guard lock(mutex_);
  return scenarios_;
}

TracedProblem::TracedProblem(const aedb::AedbTuningProblem& inner,
                             Tracer& tracer, EvalLog& log,
                             std::int64_t parent_span)
    : inner_(inner),
      tracer_(tracer),
      log_(log),
      parent_span_(parent_span),
      scenario_(log.scenario_of(inner)) {}

std::size_t TracedProblem::dimensions() const { return inner_.dimensions(); }

std::size_t TracedProblem::objective_count() const {
  return inner_.objective_count();
}

std::pair<double, double> TracedProblem::bounds(std::size_t dim) const {
  return inner_.bounds(dim);
}

std::size_t TracedProblem::fidelity_levels() const {
  return inner_.fidelity_levels();
}

std::size_t TracedProblem::screening_tier() const {
  return inner_.screening_tier();
}

std::string TracedProblem::name() const { return inner_.name(); }

void TracedProblem::note(std::int64_t start_ns, std::int64_t start_cpu_ns,
                         std::size_t tier, const moo::Solution* full_tier) const {
  EvalSample sample;
  sample.tier = static_cast<std::uint32_t>(tier);
  sample.thread = thread_index();
  sample.scenario = scenario_;
  sample.cold = log_.first_on_thread(sample.thread);
  const std::int64_t elapsed = now_ns() - start_ns;
  eval_ns_.fetch_add(elapsed);
  sample.ms = static_cast<double>(elapsed) / 1e6;
  sample.cpu_ms = static_cast<double>(thread_cpu_ns() - start_cpu_ns) / 1e6;
  log_.record(sample, tier == 0 ? full_tier : nullptr);
}

moo::Problem::Result TracedProblem::evaluate(const std::vector<double>& x) const {
  const ScopedSpan span(&tracer_, "aedb.evaluate", parent_span_);
  const std::int64_t start = now_ns();
  const std::int64_t start_cpu = thread_cpu_ns();
  Result result = inner_.evaluate(x);
  moo::Solution s{x, result.objectives, result.constraint_violation, true, 0};
  note(start, start_cpu, inner_.config().forced_tier, &s);
  return result;
}

moo::Problem::Result TracedProblem::evaluate_at(const std::vector<double>& x,
                                                std::size_t tier) const {
  const ScopedSpan span(&tracer_, "aedb.evaluate_at", parent_span_);
  const std::int64_t start = now_ns();
  const std::int64_t start_cpu = thread_cpu_ns();
  Result result = inner_.evaluate_at(x, tier);
  const std::size_t effective = tier != 0 ? tier : inner_.config().forced_tier;
  moo::Solution s{x, result.objectives, result.constraint_violation, true,
                  static_cast<std::uint32_t>(effective)};
  note(start, start_cpu, effective, &s);
  return result;
}

void TracedProblem::evaluate_batch(std::span<moo::Solution> batch) const {
  const ScopedSpan span(&tracer_, "aedb.evaluate_batch", parent_span_);
  for (moo::Solution& s : batch) {
    if (s.evaluated) continue;
    const ScopedSpan one(&tracer_, "aedb.eval");
    const std::int64_t start = now_ns();
    const std::int64_t start_cpu = thread_cpu_ns();
    inner_.evaluate_batch(std::span<moo::Solution>(&s, 1));
    note(start, start_cpu, s.fidelity, &s);
  }
}

}  // namespace perfbench
