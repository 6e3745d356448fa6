#pragma once

/// Deterministic random number generation for parallel simulation.
///
/// Two generator families are provided:
///
///  * `Xoshiro256` — a fast sequential engine used inside a single
///    simulation / optimiser thread.  It satisfies
///    `std::uniform_random_bit_generator` so it composes with `<random>`.
///
///  * `CounterRng` — a counter-based ("splittable") generator in the spirit
///    of Philox/Threefry: the k-th draw of stream (seed, id0, id1, ...) is a
///    pure function of its inputs.  This is what makes mobility traces and
///    the 10 evaluation networks bit-reproducible regardless of thread
///    interleaving or lazy evaluation order.
///
/// All helpers draw doubles in [0,1) with 53-bit resolution.

#include <array>
#include <cstdint>
#include <initializer_list>

namespace aedbmls {

/// SplitMix64 step; used for seeding and as the mixing function of
/// `CounterRng`.  Passes BigCrush when used as a generator on a counter.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless strong mix of a single 64-bit value (finalizer of splitmix64).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Combines a hash with a new value (boost::hash_combine style, 64-bit).
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t seed,
                                                   std::uint64_t value) noexcept {
  return mix64(seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)));
}

/// xoshiro256** 1.0 (Blackman & Vigna).  Fast, 2^256-1 period, suitable for
/// everything in this project except cryptography.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds all 256 bits of state from a single seed via SplitMix64.
  explicit constexpr Xoshiro256(std::uint64_t seed = 0xa5a5a5a5a5a5a5a5ULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  constexpr double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).  Requires lo <= hi (returns lo when equal).
  constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n).  n must be > 0.  Uses Lemire-style rejection
  /// to avoid modulo bias.
  std::uint64_t uniform_int(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    uniform_int(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Standard normal via Box-Muller (no cached spare: simpler, reproducible).
  double normal() noexcept;

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

/// Counter-based generator: draw(i) is a pure function of (key, i).
///
/// `CounterRng(seed, a, b, c)` derives a key by hashing the identifiers so
/// that streams for different (node, epoch, purpose) tuples are independent.
class CounterRng {
 public:
  /// Builds the stream key from a seed and an arbitrary list of stream ids.
  explicit constexpr CounterRng(std::uint64_t seed,
                                std::initializer_list<std::uint64_t> ids = {}) noexcept
      : key_(seed) {
    for (std::uint64_t id : ids) key_ = hash_combine(key_, id);
  }

  /// The i-th 64-bit draw of this stream.
  [[nodiscard]] constexpr std::uint64_t bits(std::uint64_t i) const noexcept {
    return mix64(hash_combine(key_, i ^ 0xd1b54a32d192ed03ULL));
  }

  /// The i-th uniform double in [0,1).
  [[nodiscard]] constexpr double uniform(std::uint64_t i) const noexcept {
    return static_cast<double>(bits(i) >> 11) * 0x1.0p-53;
  }

  /// The i-th uniform double in [lo, hi).
  [[nodiscard]] constexpr double uniform(std::uint64_t i, double lo,
                                         double hi) const noexcept {
    return lo + (hi - lo) * uniform(i);
  }

  /// Derives a child stream (e.g. per-node from a per-network stream).
  [[nodiscard]] constexpr CounterRng child(std::uint64_t id) const noexcept {
    CounterRng c(key_, {});
    c.key_ = hash_combine(key_, id ^ 0x9536afc5397fe9ddULL);
    return c;
  }

  /// Seeds a sequential engine from this stream (for bulk drawing).
  [[nodiscard]] constexpr Xoshiro256 engine(std::uint64_t i = 0) const noexcept {
    return Xoshiro256(bits(i));
  }

  [[nodiscard]] constexpr std::uint64_t key() const noexcept { return key_; }

 private:
  std::uint64_t key_;
};

}  // namespace aedbmls
