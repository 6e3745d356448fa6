#include "sim/net/wireless_phy.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "sim/net/wireless_channel.hpp"

namespace aedbmls::sim {

WirelessPhy::WirelessPhy(Simulator& simulator, PhyParams params, NodeId node_id)
    : simulator_(simulator), params_(params), node_id_(node_id) {}

Time WirelessPhy::frame_duration(std::uint32_t size_bytes) const noexcept {
  const double payload_s =
      static_cast<double>(size_bytes) * 8.0 / params_.bitrate_bps;
  return params_.preamble + seconds_d(payload_s);
}

bool WirelessPhy::medium_busy() const noexcept {
  if (run_.state != State::kIdle) return true;
  return run_.total_rx_mw > dbm_to_mw(params_.cs_threshold_dbm);
}

bool WirelessPhy::start_tx(Frame frame, double tx_power_dbm) {
  if (run_.state == State::kTx) return false;
  if (run_.state == State::kRx) {
    // Half duplex: transmitting stomps the reception in progress.
    ++run_.counters.rx_aborted_by_tx;
    run_.lock.reset();
  }
  run_.state = State::kTx;
  ++run_.counters.tx_frames;

  frame.sender = node_id_;
  frame.sequence = ++run_.tx_sequence;
  frame.tx_power_dbm = std::clamp(tx_power_dbm, params_.min_tx_power_dbm,
                                  params_.max_tx_power_dbm);
  const Time duration = frame_duration(frame.size_bytes);
  AEDB_REQUIRE(channel_ != nullptr, "PHY transmitting without a channel");
  channel_->transmit(this, frame, duration);
  simulator_.schedule(duration, [this] { finish_tx(); });
  return true;
}

void WirelessPhy::finish_tx() {
  AEDB_REQUIRE(run_.state == State::kTx, "finish_tx in wrong state");
  run_.state = State::kIdle;
  // Signals that arrived during our transmission were interference-only and
  // remain unlockable (we missed their preamble); they drain via
  // signal_ended.  The MAC may immediately queue the next frame.
  if (tx_done_) tx_done_();
}

WirelessPhy::Signal WirelessPhy::begin_rx(const Frame& frame,
                                          double rx_power_dbm) {
  const double power_mw = dbm_to_mw(rx_power_dbm);
  run_.total_rx_mw += power_mw;
  const std::uint64_t token = run_.next_token++;

  const bool decodable = rx_power_dbm >= params_.rx_sensitivity_dbm;
  if (run_.state == State::kIdle && decodable) {
    // Lock on and start decoding; pre-existing signals count as interference.
    run_.state = State::kRx;
    run_.lock = Lock{frame, power_mw, run_.total_rx_mw - power_mw, token};
  } else {
    if (decodable) {
      if (run_.state != State::kIdle) ++run_.counters.rx_missed_busy;
    } else {
      ++run_.counters.rx_below_sensitivity;
    }
    if (run_.lock) {
      run_.lock->peak_interference_mw =
          std::max(run_.lock->peak_interference_mw,
                   run_.total_rx_mw - run_.lock->signal_mw);
    }
  }
  return Signal{power_mw, token};
}

void WirelessPhy::signal_ended(Signal signal) {
  run_.total_rx_mw -= signal.power_mw;
  if (run_.total_rx_mw < 0.0) run_.total_rx_mw = 0.0;  // guard float drift

  // An interferer ending needs no work: the remaining overlap can only be
  // weaker, and the lock's peak already recorded the stronger period.
  if (run_.lock && run_.lock->token == signal.token) {
    // The locked frame completed: SINR decision against peak interference.
    const Lock lock = *run_.lock;
    run_.lock.reset();
    AEDB_REQUIRE(run_.state == State::kRx, "locked frame outside Rx state");
    run_.state = State::kIdle;
    const double noise_mw = dbm_to_mw(params_.noise_floor_dbm);
    const double sinr =
        lock.signal_mw / (noise_mw + lock.peak_interference_mw);
    if (sinr >= db_to_ratio(params_.sinr_threshold_db)) {
      ++run_.counters.rx_ok;
      if (rx_callback_) rx_callback_(lock.frame, mw_to_dbm(lock.signal_mw));
    } else {
      ++run_.counters.rx_failed_sinr;
    }
  }
}

}  // namespace aedbmls::sim
