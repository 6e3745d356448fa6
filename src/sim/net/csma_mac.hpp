#pragma once

/// CSMA/CA-style broadcast MAC.
///
/// Broadcast frames in 802.11 are sent unacknowledged after carrier sense
/// and (when the medium was busy) a random backoff.  This MAC reproduces
/// that contention behaviour with a polling backoff: when the clear-channel
/// assessment fails, it retries after DIFS plus a uniformly drawn number of
/// slots.  Compared to a full DCF, the backoff counter is re-drawn instead
/// of frozen/resumed — a documented simplification that slightly increases
/// collision probability under very high load (the paper's scenarios are
/// lightly loaded: beacons plus a single dissemination wave).

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "sim/core/simulator.hpp"
#include "sim/net/frame.hpp"
#include "sim/net/wireless_phy.hpp"

namespace aedbmls::sim {

class CsmaBroadcastMac {
 public:
  struct Params {
    Time difs = microseconds(50);   ///< DCF interframe space
    Time slot = microseconds(20);   ///< backoff slot duration
    std::uint32_t cw = 32;          ///< contention window (slots drawn in [0,cw))
    std::uint32_t max_retries = 64; ///< give up (drop) after this many CCA failures

    friend constexpr bool operator==(const Params&, const Params&) = default;
  };

  /// Called with the frame when the MAC drops it (CCA never succeeded).
  using DropCallback = std::function<void(const Frame&)>;
  /// Called when a frame finished transmitting, with the actual (clamped)
  /// power used — the energy metric is accounted from this.
  using SentCallback = std::function<void(const Frame&, double tx_power_dbm)>;

  CsmaBroadcastMac(Simulator& simulator, WirelessPhy& phy, Params params,
                   std::uint64_t rng_seed);

  /// Queues a frame for transmission at `tx_power_dbm` (clamped to the
  /// radio's [min,max] range at enqueue time).
  void enqueue(Frame frame, double tx_power_dbm);

  void set_drop_callback(DropCallback cb) { on_drop_ = std::move(cb); }
  void set_sent_callback(SentCallback cb) { on_sent_ = std::move(cb); }

  [[nodiscard]] std::size_t queue_length() const noexcept {
    return run_.queue.size();
  }

  struct Counters {
    std::uint64_t enqueued = 0;
    std::uint64_t sent = 0;
    std::uint64_t dropped = 0;
    std::uint64_t cca_busy = 0;  ///< times the medium was found busy
  };
  [[nodiscard]] const Counters& counters() const noexcept { return run_.counters; }

  /// A queued frame.
  struct Pending {
    Frame frame;
    double tx_power_dbm;
    std::uint32_t attempts = 0;
  };

  /// Everything a run changes.  `{.rng = Xoshiro256(rng_seed)}` is a
  /// just-built MAC.
  ///
  /// The queue is a vector popped from the front.  It holds a few frames
  /// (a node queues a beacon a second and at most one data frame per
  /// broadcast), so the shift is cheap; unlike a `std::deque` it keeps its
  /// capacity, so a warmed MAC never allocates, and a copy holds only the
  /// queued frames.
  struct RunState {
    Xoshiro256 rng;
    std::vector<Pending> queue{};  ///< oldest first
    bool transmitting = false;
    bool retry_scheduled = false;
    Counters counters{};
  };

  /// Rearms the MAC for a fresh run, bitwise-equivalent to constructing a
  /// new MAC with the same parameters and `rng_seed`.  Parameters and
  /// drop/sent callbacks are kept (pooled contexts install them once at
  /// graph build), and so is the queue's capacity.
  void reset(std::uint64_t rng_seed) {
    restore(RunState{.rng = Xoshiro256(rng_seed)});
  }
  void save(RunState& into) const { into = run_; }
  /// Copy-assigns, so the queue keeps its capacity.
  void restore(const RunState& from) { run_ = from; }

 private:
  void try_send();
  void tx_finished();

  Simulator& simulator_;
  WirelessPhy& phy_;
  Params params_;
  DropCallback on_drop_;
  SentCallback on_sent_;
  RunState run_;
};

}  // namespace aedbmls::sim
