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

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "sim/core/simulator.hpp"
#include "sim/mobility/mobility_model.hpp"
#include "sim/net/frame.hpp"
#include "sim/net/wireless_phy.hpp"
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
  void reset() noexcept;

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
  };

  /// One receiver of a transmission.
  struct Delivery {
    Time arrival;
    std::uint64_t arrival_seq = 0;  ///< scheduler key of the arrival
    std::uint64_t end_seq = 0;      ///< ... of the signal end, taken at arrival
    WirelessPhy* phy = nullptr;
    double rx_dbm = 0.0;
    WirelessPhy::Signal signal{};
  };

  /// One transmission's fan-out.  Pooled: `deliveries` keeps its capacity.
  struct Wave {
    Frame frame;
    Time duration;
    std::vector<Delivery> deliveries;  ///< in (arrival, arrival_seq) order
    std::size_t next = 0;              ///< next delivery to run
    bool ending = false;               ///< running signal ends, not arrivals
  };

  Wave& acquire_wave();
  /// Runs `wave`'s members while each is due next, then re-enters the
  /// scheduler under the key of the first member that is not.
  void run_wave(Wave& wave);

  Simulator& simulator_;
  const PropagationModel& propagation_;
  bool model_delay_;
  std::vector<Entry> entries_;
  std::uint64_t signals_delivered_ = 0;
  std::vector<std::unique_ptr<Wave>> waves_;  ///< every wave built
  std::vector<Wave*> free_waves_;             ///< capacity >= waves_.size()
};

}  // namespace aedbmls::sim
