#include "sim/net/wireless_channel.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace aedbmls::sim {

namespace {
constexpr double kSpeedOfLight = 299792458.0;  // m/s
}

WirelessChannel::WirelessChannel(Simulator& simulator,
                                 const PropagationModel& propagation,
                                 bool model_propagation_delay)
    : simulator_(simulator),
      propagation_(propagation),
      model_delay_(model_propagation_delay) {}

void WirelessChannel::attach(WirelessPhy* phy, const MobilityModel* mobility) {
  AEDB_REQUIRE(phy != nullptr && mobility != nullptr, "attach null");
  phy->set_channel(this, static_cast<std::uint32_t>(entries_.size()));
  entries_.push_back(Entry{phy, mobility});
}

void WirelessChannel::reset() noexcept {
  signals_delivered_ = 0;
  free_waves_.clear();
  for (const auto& wave : waves_) free_waves_.push_back(wave.get());
}

WirelessChannel::Wave& WirelessChannel::acquire_wave() {
  if (free_waves_.empty()) {
    waves_.push_back(std::make_unique<Wave>());
    waves_.back()->deliveries.reserve(entries_.size());
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
  const Vec2 tx_pos = entries_[sender_slot].mobility->position(now);

  Wave& wave = acquire_wave();
  wave.deliveries.clear();
  for (const Entry& entry : entries_) {
    if (entry.phy == sender) continue;
    const Vec2 rx_pos = entry.mobility->position(now);
    const double rx_dbm =
        propagation_.rx_power_dbm(frame.tx_power_dbm, tx_pos, rx_pos);
    if (rx_dbm < entry.phy->params().interference_floor_dbm) continue;

    Time delay{};
    if (model_delay_) {
      const double meters = distance(tx_pos, rx_pos);
      delay = seconds_d(meters / kSpeedOfLight);
    }
    Delivery delivery;
    delivery.arrival = now + delay;
    delivery.phy = entry.phy;
    delivery.rx_dbm = rx_dbm;
    wave.deliveries.push_back(delivery);
  }
  if (wave.deliveries.empty()) {
    free_waves_.push_back(&wave);
    return;
  }
  signals_delivered_ += wave.deliveries.size();

  // One event per receiver, inserted in attach order, would have taken
  // these sequence numbers.
  std::uint64_t seq = simulator_.reserve_seq(wave.deliveries.size());
  for (Delivery& delivery : wave.deliveries) delivery.arrival_seq = seq++;
  // The keys are distinct, so an unstable sort is deterministic (and,
  // unlike std::stable_sort, never allocates).
  std::sort(wave.deliveries.begin(), wave.deliveries.end(),
            [](const Delivery& a, const Delivery& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              return a.arrival_seq < b.arrival_seq;
            });
  AEDB_REQUIRE(wave.deliveries.back().arrival - wave.deliveries.front().arrival <=
                   duration,
               "airtime shorter than the arrival spread: a signal would end "
               "before its transmission's last arrival");

  wave.frame = frame;
  wave.duration = duration;
  wave.next = 0;
  wave.ending = false;
  const Delivery& first = wave.deliveries.front();
  simulator_.schedule_keyed(first.arrival, first.arrival_seq,
                            [this, &wave] { run_wave(wave); });
}

void WirelessChannel::run_wave(Wave& wave) {
  for (;;) {
    Delivery& delivery = wave.deliveries[wave.next];
    if (wave.ending) {
      delivery.phy->signal_ended(delivery.signal);
    } else {
      delivery.signal = delivery.phy->begin_rx(wave.frame, delivery.rx_dbm);
      // The PHY's own insert of the signal end took the next number here.
      delivery.end_seq = simulator_.reserve_seq(1);
    }

    if (++wave.next == wave.deliveries.size()) {
      if (wave.ending) {
        free_waves_.push_back(&wave);
        return;
      }
      // Signal ends follow in the arrivals' order, which is already their
      // (time, sequence) order: equal airtimes, increasing end_seq.
      wave.ending = true;
      wave.next = 0;
    }
    const Delivery& next = wave.deliveries[wave.next];
    const Time when = wave.ending ? next.arrival + wave.duration : next.arrival;
    const std::uint64_t seq = wave.ending ? next.end_seq : next.arrival_seq;
    if (!simulator_.claim_next(when, seq)) {
      simulator_.schedule_keyed(when, seq, [this, &wave] { run_wave(wave); });
      return;
    }
  }
}

}  // namespace aedbmls::sim
