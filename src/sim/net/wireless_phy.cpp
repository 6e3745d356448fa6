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
  if (state_ != State::kIdle) return true;
  return total_rx_mw_ > dbm_to_mw(params_.cs_threshold_dbm);
}

bool WirelessPhy::start_tx(Frame frame, double tx_power_dbm) {
  if (state_ == State::kTx) return false;
  if (state_ == State::kRx) {
    // Half duplex: transmitting stomps the reception in progress.
    ++counters_.rx_aborted_by_tx;
    lock_.reset();
  }
  state_ = State::kTx;
  ++counters_.tx_frames;

  frame.sender = node_id_;
  frame.sequence = ++tx_sequence_;
  frame.tx_power_dbm = std::clamp(tx_power_dbm, params_.min_tx_power_dbm,
                                  params_.max_tx_power_dbm);
  const Time duration = frame_duration(frame.size_bytes);
  AEDB_REQUIRE(channel_ != nullptr, "PHY transmitting without a channel");
  channel_->transmit(this, frame, duration);
  simulator_.schedule(duration, [this] { finish_tx(); });
  return true;
}

void WirelessPhy::finish_tx() {
  AEDB_REQUIRE(state_ == State::kTx, "finish_tx in wrong state");
  state_ = State::kIdle;
  // Signals that arrived during our transmission were interference-only and
  // remain unlockable (we missed their preamble); they drain via
  // signal_ended.  The MAC may immediately queue the next frame.
  if (tx_done_) tx_done_();
}

WirelessPhy::Signal WirelessPhy::begin_rx(const Frame& frame,
                                          double rx_power_dbm) {
  const double power_mw = dbm_to_mw(rx_power_dbm);
  total_rx_mw_ += power_mw;
  const std::uint64_t token = next_token_++;

  const bool decodable = rx_power_dbm >= params_.rx_sensitivity_dbm;
  if (state_ == State::kIdle && decodable) {
    // Lock on and start decoding; pre-existing signals count as interference.
    state_ = State::kRx;
    lock_ = Lock{frame, power_mw, total_rx_mw_ - power_mw, token};
  } else {
    if (decodable) {
      if (state_ != State::kIdle) ++counters_.rx_missed_busy;
    } else {
      ++counters_.rx_below_sensitivity;
    }
    if (lock_) {
      lock_->peak_interference_mw =
          std::max(lock_->peak_interference_mw, total_rx_mw_ - lock_->signal_mw);
    }
  }
  return Signal{power_mw, token};
}

void WirelessPhy::signal_ended(Signal signal) {
  total_rx_mw_ -= signal.power_mw;
  if (total_rx_mw_ < 0.0) total_rx_mw_ = 0.0;  // guard float drift

  // An interferer ending needs no work: the remaining overlap can only be
  // weaker, and the lock's peak already recorded the stronger period.
  if (lock_ && lock_->token == signal.token) {
    // The locked frame completed: SINR decision against peak interference.
    const Lock lock = *lock_;
    lock_.reset();
    AEDB_REQUIRE(state_ == State::kRx, "locked frame outside Rx state");
    state_ = State::kIdle;
    const double noise_mw = dbm_to_mw(params_.noise_floor_dbm);
    const double sinr =
        lock.signal_mw / (noise_mw + lock.peak_interference_mw);
    if (sinr >= db_to_ratio(params_.sinr_threshold_db)) {
      ++counters_.rx_ok;
      if (rx_callback_) rx_callback_(lock.frame, mw_to_dbm(lock.signal_mw));
    } else {
      ++counters_.rx_failed_sinr;
    }
  }
}

}  // namespace aedbmls::sim
