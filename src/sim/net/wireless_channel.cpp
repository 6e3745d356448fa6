#include "sim/net/wireless_channel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"

namespace aedbmls::sim {

namespace {
constexpr double kSpeedOfLight = 299792458.0;  // m/s
/// Relative slack of the cull radius over the floor's exact distance.
constexpr double kCullSlack = 1e-6;
/// Low half of a wave's order key: the delivery index.
constexpr std::uint64_t kIndexMask = 0xffffffffULL;
}  // namespace

WirelessChannel::WirelessChannel(Simulator& simulator,
                                 const PropagationModel& propagation,
                                 bool model_propagation_delay)
    : simulator_(simulator),
      propagation_(propagation),
      log_distance_(dynamic_cast<const LogDistancePropagation*>(&propagation)),
      model_delay_(model_propagation_delay),
      lowest_floor_dbm_(std::numeric_limits<double>::infinity()) {}

void WirelessChannel::attach(WirelessPhy* phy, const MobilityModel* mobility) {
  AEDB_REQUIRE(phy != nullptr && mobility != nullptr, "attach null");
  AEDB_REQUIRE(entries_.size() < kIndexMask, "too many PHYs on one channel");
  phy->set_channel(this, static_cast<std::uint32_t>(entries_.size()));
  const double floor = phy->params().interference_floor_dbm;
  lowest_floor_dbm_ = std::min(lowest_floor_dbm_, floor);
  entries_.push_back(Entry{phy, mobility,
                           dynamic_cast<const RandomWalkMobility*>(mobility),
                           floor});
}

void WirelessChannel::save(RunState& into) const {
  into.signals_delivered = signals_delivered_;
  into.flights.clear();
  for (const auto& wave : waves_) {
    if (std::find(free_waves_.begin(), free_waves_.end(), wave.get()) ==
        free_waves_.end()) {
      into.flights.push_back(Flight{wave.get(), *wave});
    }
  }
}

void WirelessChannel::restore(const RunState& from) {
  signals_delivered_ = from.signals_delivered;
  free_waves_.clear();
  for (const auto& wave : waves_) {
    const bool in_flight = std::any_of(
        from.flights.begin(), from.flights.end(),
        [&](const Flight& flight) { return flight.wave == wave.get(); });
    if (!in_flight) free_waves_.push_back(wave.get());
  }
  for (const Flight& flight : from.flights) *flight.wave = flight.contents;
}

WirelessChannel::Wave& WirelessChannel::acquire_wave() {
  if (free_waves_.empty()) {
    waves_.push_back(std::make_unique<Wave>());
    waves_.back()->deliveries.reserve(entries_.size());
    waves_.back()->order.reserve(entries_.size());
    free_waves_.reserve(waves_.size());
    return *waves_.back();
  }
  Wave* wave = free_waves_.back();
  free_waves_.pop_back();
  return *wave;
}

void WirelessChannel::transmit(const WirelessPhy* sender, const Frame& frame,
                               Time duration) {
  const Time now = simulator_.now();
  const std::uint32_t sender_slot = sender->channel_slot();
  AEDB_REQUIRE(sender_slot < entries_.size() && entries_[sender_slot].phy == sender,
               "transmit from unattached PHY");
  const Vec2 tx_pos = position_of(entries_[sender_slot], now);
  const double tx_dbm = frame.tx_power_dbm;

  // Squared cull radius; +inf (cull nothing) unless the path loss is plain
  // log-distance, increasing with distance.
  double cull_d2 = std::numeric_limits<double>::infinity();
  if (log_distance_ != nullptr && log_distance_->config().exponent > 0.0) {
    const double radius =
        log_distance_->distance_for_loss(tx_dbm - lowest_floor_dbm_) *
        (1.0 + kCullSlack);
    cull_d2 = radius * radius;
  }

  Wave& wave = acquire_wave();
  wave.deliveries.clear();
  wave.order.clear();
  for (const Entry& entry : entries_) {
    if (entry.phy == sender) continue;
    const Vec2 rx_pos = position_of(entry, now);
    // distance(tx_pos, rx_pos), with the square kept for the cull.
    const double dx = tx_pos.x - rx_pos.x;
    const double dy = tx_pos.y - rx_pos.y;
    const double d2 = dx * dx + dy * dy;
    if (d2 > cull_d2) continue;
    const double meters = std::sqrt(d2);
    const double rx_dbm =
        log_distance_ != nullptr
            ? tx_dbm - log_distance_->loss_db(meters)
            : propagation_.rx_power_dbm(tx_dbm, tx_pos, rx_pos);
    if (rx_dbm < entry.floor_dbm) continue;

    std::uint64_t delay_ns = 0;
    if (model_delay_) {
      const std::int64_t ns = seconds_d(meters / kSpeedOfLight).ns();
      AEDB_REQUIRE(ns >= 0 && static_cast<std::uint64_t>(ns) <= kIndexMask,
                   "flight delay does not fit the wave's 32-bit key");
      delay_ns = static_cast<std::uint64_t>(ns);
    }
    wave.order.push_back(delay_ns << 32 | wave.deliveries.size());
    wave.deliveries.push_back(Delivery{entry.phy, rx_dbm, 0, {}});
  }
  if (wave.deliveries.empty()) {
    free_waves_.push_back(&wave);
    return;
  }
  signals_delivered_ += wave.deliveries.size();

  // One event per receiver, inserted in attach order, would have taken
  // these sequence numbers: delivery i's is first_seq + i, so the keys'
  // (delay, index) order is the (arrival, sequence) order.  The keys are
  // distinct, so an unstable sort is deterministic.
  wave.first_seq = simulator_.reserve_seq(wave.deliveries.size());
  std::sort(wave.order.begin(), wave.order.end());
  AEDB_REQUIRE(static_cast<std::int64_t>((wave.order.back() >> 32) -
                                         (wave.order.front() >> 32)) <=
                   duration.ns(),
               "airtime shorter than the arrival spread: a signal would end "
               "before its transmission's last arrival");

  wave.frame = frame;
  wave.start = now;
  wave.duration = duration;
  wave.next = 0;
  wave.ending = false;
  const std::uint64_t first = wave.order.front();
  const Time arrival = now + nanoseconds(static_cast<std::int64_t>(first >> 32));
  simulator_.schedule_keyed(arrival, wave.first_seq + (first & kIndexMask),
                            [this, &wave] { run_wave(wave); });
}

void WirelessChannel::run_wave(Wave& wave) {
  for (;;) {
    Delivery& delivery = wave.deliveries[wave.order[wave.next] & kIndexMask];
    if (wave.ending) {
      delivery.phy->signal_ended(delivery.signal);
    } else {
      delivery.signal = delivery.phy->begin_rx(wave.frame, delivery.rx_dbm);
      // The PHY's own insert of the signal end took the next number here.
      delivery.end_seq = simulator_.reserve_seq(1);
    }

    if (++wave.next == wave.order.size()) {
      if (wave.ending) {
        free_waves_.push_back(&wave);
        return;
      }
      // Signal ends follow in the arrivals' order, which is already their
      // (time, sequence) order: equal airtimes, increasing end_seq.
      wave.ending = true;
      wave.next = 0;
    }
    const std::uint64_t key = wave.order[wave.next];
    const std::uint64_t index = key & kIndexMask;
    const Time arrival =
        wave.start + nanoseconds(static_cast<std::int64_t>(key >> 32));
    const Time when = wave.ending ? arrival + wave.duration : arrival;
    const std::uint64_t seq = wave.ending ? wave.deliveries[index].end_seq
                                          : wave.first_seq + index;
    if (!simulator_.claim_next(when, seq)) {
      simulator_.schedule_keyed(when, seq, [this, &wave] { run_wave(wave); });
      return;
    }
  }
}

}  // namespace aedbmls::sim
