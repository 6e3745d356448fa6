#include "sim/net/csma_mac.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace aedbmls::sim {

CsmaBroadcastMac::CsmaBroadcastMac(Simulator& simulator, WirelessPhy& phy,
                                   Params params, std::uint64_t rng_seed)
    : simulator_(simulator), phy_(phy), params_(params), rng_(rng_seed) {
  AEDB_REQUIRE(params_.cw >= 1, "contention window must be >= 1");
  phy_.set_tx_done_callback([this] { tx_finished(); });
}

void CsmaBroadcastMac::reset(std::uint64_t rng_seed) {
  rng_ = Xoshiro256(rng_seed);
  queue_head_ = 0;
  queue_count_ = 0;
  transmitting_ = false;
  retry_scheduled_ = false;
  counters_ = Counters{};
}

void CsmaBroadcastMac::enqueue(Frame frame, double tx_power_dbm) {
  ++counters_.enqueued;
  const double clamped =
      std::clamp(tx_power_dbm, phy_.params().min_tx_power_dbm,
                 phy_.params().max_tx_power_dbm);
  queue_push(Pending{frame, clamped, 0});
  try_send();
}

void CsmaBroadcastMac::queue_push(Pending pending) {
  if (queue_count_ == queue_.size()) {
    // Grow to the next power of two and unroll the ring into the new
    // storage so index arithmetic stays a single mask.
    std::vector<Pending> grown;
    grown.reserve(queue_.empty() ? 4 : queue_.size() * 2);
    for (std::size_t i = 0; i < queue_count_; ++i) {
      grown.push_back(queue_[(queue_head_ + i) & (queue_.size() - 1)]);
    }
    grown.resize(grown.capacity());
    queue_ = std::move(grown);
    queue_head_ = 0;
  }
  queue_[(queue_head_ + queue_count_) & (queue_.size() - 1)] =
      std::move(pending);
  ++queue_count_;
}

void CsmaBroadcastMac::try_send() {
  if (transmitting_ || retry_scheduled_ || queue_empty()) return;

  Pending& head = queue_front();
  if (phy_.medium_busy()) {
    ++counters_.cca_busy;
    if (++head.attempts > params_.max_retries) {
      ++counters_.dropped;
      const Frame dropped = head.frame;
      queue_pop();
      if (on_drop_) on_drop_(dropped);
      try_send();
      return;
    }
    const auto slots = rng_.uniform_int(params_.cw);
    const Time wait = params_.difs + params_.slot * static_cast<std::int64_t>(slots);
    retry_scheduled_ = true;
    simulator_.schedule(wait, [this] {
      retry_scheduled_ = false;
      try_send();
    });
    return;
  }

  transmitting_ = true;
  const bool started = phy_.start_tx(head.frame, head.tx_power_dbm);
  AEDB_REQUIRE(started, "PHY refused tx while MAC believed it idle");
}

void CsmaBroadcastMac::tx_finished() {
  AEDB_REQUIRE(transmitting_, "tx_finished without transmission");
  transmitting_ = false;
  AEDB_REQUIRE(!queue_empty(), "MAC queue underflow");
  ++counters_.sent;
  const Frame sent = queue_front().frame;
  const double power = queue_front().tx_power_dbm;
  queue_pop();
  if (on_sent_) on_sent_(sent, power);
  try_send();
}

}  // namespace aedbmls::sim
