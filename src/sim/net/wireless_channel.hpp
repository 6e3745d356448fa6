#pragma once

/// Broadcast wireless medium connecting all PHYs of a scenario.
///
/// On each transmission the channel evaluates the propagation model against
/// every other attached PHY at the *current* positions (mobility during one
/// frame, < 3 ms at <= 2 m/s, is < 6 mm and is ignored) and delivers the
/// signal after the speed-of-light delay.  Signals below the interference
/// floor are culled here, which keeps the work per transmission
/// proportional to the neighbourhood size rather than the network size.
///
/// The receiver loop computes each link's distance once, for both path
/// loss and flight delay.  On a plain log-distance channel (no shadowing)
/// it also skips a receiver before any `sqrt` or `log10` when the squared
/// distance exceeds the square of the transmission's *cull radius*,
/// `distance_for_loss(tx_dbm - lowest floor) * (1 + 1e-6)`.  Beyond that
/// radius the path loss exceeds `tx_dbm - floor` by >= 4e-6 * exponent dB,
/// far above the rounding error of `rx_dbm`, so the uncut loop would have
/// culled the same receivers: deliveries and every `rx_dbm` are unchanged.
/// The common pair (log-distance propagation, random-walk mobility) is
/// called through non-virtual inline code resolved once, at construction
/// and at attach; other models take the virtual interfaces.
///
/// A transmission's fan-out runs as one scheduler entry, a *wave*: first
/// every receiver's signal arrival (`WirelessPhy::begin_rx`), then every
/// signal end (`WirelessPhy::signal_ended`).  Each member runs under the
/// exact (time, sequence) key a per-receiver event would have had: the
/// arrivals take a block of sequence numbers reserved in attach order, and
/// each arrival takes its signal end's number when it runs.  The wave runs
/// members back to back while `Simulator::claim_next` says the next one is
/// due, and otherwise re-enters the scheduler under that member's key — so
/// the global event order, `now()` and `executed_events()` are exactly
/// those of one event per arrival and per signal end.  This requires every
/// signal to end at or after the transmission's last arrival (airtime >=
/// arrival spread), which the channel checks.
///
/// Deliveries stay in attach order; the wave's run order is a sorted array
/// of 8-byte keys `delay_ns << 32 | delivery index`.  Arrival i's sequence
/// number is the reserved block's first plus i, so ordering by this key is
/// ordering by (arrival time, sequence).  Flight delays must fit in 32 bits
/// of nanoseconds (4.29 s, i.e. 1.29e6 km), which the channel checks.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "sim/core/simulator.hpp"
#include "sim/mobility/mobility_model.hpp"
#include "sim/mobility/random_walk.hpp"
#include "sim/net/frame.hpp"
#include "sim/net/wireless_phy.hpp"
#include "sim/propagation/log_distance.hpp"
#include "sim/propagation/propagation_model.hpp"

namespace aedbmls::sim {

class WirelessChannel {
 public:
  /// `propagation` must outlive the channel.
  WirelessChannel(Simulator& simulator, const PropagationModel& propagation,
                  bool model_propagation_delay = true);

  /// Registers a PHY and the mobility model giving its position.
  /// Both must outlive the channel.
  void attach(WirelessPhy* phy, const MobilityModel* mobility);

  /// Re-arms the medium for a fresh run: delivery counter cleared, every
  /// wave back in the pool (the caller has cleared the simulator's pending
  /// events).  Attached PHYs are kept.
  void reset() { restore(RunState{}); }

  /// Radiates `frame` from `sender` (an attached PHY) for `duration`.
  void transmit(const WirelessPhy* sender, const Frame& frame, Time duration);

  [[nodiscard]] std::size_t device_count() const noexcept { return entries_.size(); }

  /// Total signals delivered above the interference floor (bench metric).
  [[nodiscard]] std::uint64_t signals_delivered() const noexcept {
    return signals_delivered_;
  }

 private:
  struct Entry {
    WirelessPhy* phy;
    const MobilityModel* mobility;
    const RandomWalkMobility* walk;  ///< `mobility` if a random walk, else null
    double floor_dbm;                ///< the PHY's interference floor
  };

  /// One receiver of a transmission.
  struct Delivery {
    WirelessPhy* phy = nullptr;
    double rx_dbm = 0.0;
    std::uint64_t end_seq = 0;  ///< the signal end's key, taken at arrival
    WirelessPhy::Signal signal{};
  };

  /// One transmission's fan-out.  Pooled: the vectors keep their capacity.
  struct Wave {
    Frame frame;
    Time start;                        ///< when sent; arrival = start + delay
    Time duration;
    std::uint64_t first_seq = 0;       ///< arrival sequence of deliveries[0]
    std::vector<Delivery> deliveries;  ///< in attach order
    std::vector<std::uint64_t> order;  ///< delay_ns << 32 | index, ascending
    std::size_t next = 0;              ///< next member of `order` to run
    bool ending = false;               ///< running signal ends, not arrivals
  };

 public:
  /// A wave in flight: the pooled object its pending event points at, and
  /// a copy of its contents.
  struct Flight {
    Wave* wave;
    Wave contents;
  };

  /// What a run leaves in the medium: the delivery count and the waves in
  /// flight.  The default is a medium with every wave in the pool.
  struct RunState {
    std::uint64_t signals_delivered = 0;
    std::vector<Flight> flights;
  };

  /// Copies the run state into `into`.
  void save(RunState& into) const;

  /// Replaces the run state with `from`, which `save` took on this
  /// channel: each wave in flight is copied back into the pooled object
  /// its pending event points at; every other wave returns to the pool.
  void restore(const RunState& from);

 private:
  [[nodiscard]] Vec2 position_of(const Entry& entry, Time now) const {
    return entry.walk != nullptr ? entry.walk->position(now)
                                 : entry.mobility->position(now);
  }

  Wave& acquire_wave();
  /// Runs `wave`'s members while each is due next, then re-enters the
  /// scheduler under the key of the first member that is not.
  void run_wave(Wave& wave);

  Simulator& simulator_;
  const PropagationModel& propagation_;
  /// `propagation_` when it is plain log-distance (inline path loss and
  /// the cull radius), else null.
  const LogDistancePropagation* log_distance_;
  bool model_delay_;
  std::vector<Entry> entries_;
  double lowest_floor_dbm_;  ///< min interference floor over entries_
  std::uint64_t signals_delivered_ = 0;
  std::vector<std::unique_ptr<Wave>> waves_;  ///< every wave built
  std::vector<Wave*> free_waves_;             ///< capacity >= waves_.size()
};

}  // namespace aedbmls::sim
