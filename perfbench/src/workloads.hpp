#pragma once

/// The benchmark's workloads.  Each runs repetitions of set-up + timed
/// phase until `Options::seconds` have passed (at least `Options::min_reps`),
/// checks every output, and reports medians over repetitions.  With a
/// tracer, repetitions alternate untraced/traced: the traced ones feed the
/// per-layer metrics, and the pair gives the tracing overhead.

#include <cstddef>
#include <cstdint>
#include <string>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {


/// Load threads: one per hardware thread.
[[nodiscard]] std::size_t load_threads();

/// True while another repetition should start.
[[nodiscard]] bool want_rep(std::size_t done, std::int64_t start_ns,
                            const Options& options);

/// Distinct threads that evaluated, per the log.
[[nodiscard]] std::size_t distinct_threads(const EvalLog& log);

/// Bitwise equality of two evaluation details.
[[nodiscard]] bool same_detail(const aedb::AedbTuningProblem::Detail& a,
                               const aedb::AedbTuningProblem::Detail& b);

[[nodiscard]] Outcome run_mls_d300(const Options& options, Tracer* tracer);
[[nodiscard]] Outcome run_race_deadline(const Options& options, Tracer* tracer);
[[nodiscard]] Outcome run_campaign_smoke(const Options& options, Tracer* tracer);

/// Writes the pinned digest table of the campaign's generational cells for
/// seeds [0, count) to `path`; returns a process exit code.
[[nodiscard]] int pin_campaign_digests(std::size_t count, const std::string& path);

}  // namespace perfbench
