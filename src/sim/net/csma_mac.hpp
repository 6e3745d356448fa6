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

  /// Rearms the MAC for a fresh run: queue flushed, RNG re-seeded, flags
  /// and counters cleared.  Parameters and drop/sent callbacks are kept
  /// (pooled contexts install them once at graph build).  Bitwise-equivalent
  /// to constructing a new MAC with the same parameters and `rng_seed`.
  void reset(std::uint64_t rng_seed);

  void set_drop_callback(DropCallback cb) { on_drop_ = std::move(cb); }
  void set_sent_callback(SentCallback cb) { on_sent_ = std::move(cb); }

  [[nodiscard]] std::size_t queue_length() const noexcept { return queue_count_; }

  struct Counters {
    std::uint64_t enqueued = 0;
    std::uint64_t sent = 0;
    std::uint64_t dropped = 0;
    std::uint64_t cca_busy = 0;  ///< times the medium was found busy
  };
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

 private:
  struct Pending {
    Frame frame;
    double tx_power_dbm;
    std::uint32_t attempts = 0;
  };

  void try_send();
  void tx_finished();

  /// FIFO access to the power-of-two ring below.  A `std::deque` here costs
  /// one chunk allocation every few frames as the push/pop cursor migrates
  /// across chunk boundaries — measurable per-run heap traffic under pooled
  /// steady state.  The ring retains its capacity across `reset()`, so once
  /// warmed it never allocates again.
  [[nodiscard]] Pending& queue_front() noexcept {
    return queue_[queue_head_ & (queue_.size() - 1)];
  }
  void queue_push(Pending pending);
  void queue_pop() noexcept {
    ++queue_head_;
    --queue_count_;
  }
  [[nodiscard]] bool queue_empty() const noexcept { return queue_count_ == 0; }

  Simulator& simulator_;
  WirelessPhy& phy_;
  Params params_;
  Xoshiro256 rng_;
  std::vector<Pending> queue_;   ///< ring storage, size always a power of two
  std::size_t queue_head_ = 0;   ///< index of the oldest pending frame
  std::size_t queue_count_ = 0;  ///< live entries in the ring
  bool transmitting_ = false;
  bool retry_scheduled_ = false;
  DropCallback on_drop_;
  SentCallback on_sent_;
  Counters counters_;
};

}  // namespace aedbmls::sim
