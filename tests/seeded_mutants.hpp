#pragma once

/// Seeded byte-level mutation operators shared by the decoder harnesses
/// (cell log, telemetry lines, fault plans): flip a few bytes, or
/// splice in a run of donor bytes.  Truncation needs no helper — harnesses
/// cut at every byte.  Everything draws from one `Xoshiro256`, so a harness
/// replays the same mutants on every run.

#include <cstdint>
#include <string>

#include "common/rng.hpp"

namespace aedbmls::mutants {

/// Non-empty `text` with 1-4 seeded bytes XOR-ed by a non-zero mask.
inline std::string flip(std::string text, Xoshiro256& rng) {
  const std::uint64_t flips = 1 + rng.uniform_int(std::uint64_t{4});
  for (std::uint64_t f = 0; f < flips; ++f) {
    text[rng.uniform_int(text.size())] ^=
        static_cast<char>(1 + rng.uniform_int(std::uint64_t{255}));
  }
  return text;
}

/// `text` with a seeded non-empty run of a non-empty `donor` inserted at a
/// seeded offset.
inline std::string splice(const std::string& text, const std::string& donor,
                          Xoshiro256& rng) {
  const std::size_t from = rng.uniform_int(donor.size());
  const std::size_t length = 1 + rng.uniform_int(donor.size() - from);
  const std::size_t at = rng.uniform_int(text.size() + 1);
  return text.substr(0, at) + donor.substr(from, length) + text.substr(at);
}

}  // namespace aedbmls::mutants
