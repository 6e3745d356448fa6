#include "sim/net/csma_mac.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace aedbmls::sim {

CsmaBroadcastMac::CsmaBroadcastMac(Simulator& simulator, WirelessPhy& phy,
                                   Params params, std::uint64_t rng_seed)
    : simulator_(simulator), phy_(phy), params_(params),
      run_{.rng = Xoshiro256(rng_seed)} {
  AEDB_REQUIRE(params_.cw >= 1, "contention window must be >= 1");
  phy_.set_tx_done_callback([this] { tx_finished(); });
}

void CsmaBroadcastMac::enqueue(Frame frame, double tx_power_dbm) {
  ++run_.counters.enqueued;
  const double clamped =
      std::clamp(tx_power_dbm, phy_.params().min_tx_power_dbm,
                 phy_.params().max_tx_power_dbm);
  run_.queue.push_back(Pending{frame, clamped, 0});
  try_send();
}

void CsmaBroadcastMac::try_send() {
  if (run_.transmitting || run_.retry_scheduled || run_.queue.empty()) return;

  Pending& head = run_.queue.front();
  if (phy_.medium_busy()) {
    ++run_.counters.cca_busy;
    if (++head.attempts > params_.max_retries) {
      ++run_.counters.dropped;
      const Frame dropped = head.frame;
      run_.queue.erase(run_.queue.begin());
      if (on_drop_) on_drop_(dropped);
      try_send();
      return;
    }
    const auto slots = run_.rng.uniform_int(params_.cw);
    const Time wait = params_.difs + params_.slot * static_cast<std::int64_t>(slots);
    run_.retry_scheduled = true;
    simulator_.schedule(wait, [this] {
      run_.retry_scheduled = false;
      try_send();
    });
    return;
  }

  run_.transmitting = true;
  const bool started = phy_.start_tx(head.frame, head.tx_power_dbm);
  AEDB_REQUIRE(started, "PHY refused tx while MAC believed it idle");
}

void CsmaBroadcastMac::tx_finished() {
  AEDB_REQUIRE(run_.transmitting, "tx_finished without transmission");
  run_.transmitting = false;
  AEDB_REQUIRE(!run_.queue.empty(), "MAC queue underflow");
  ++run_.counters.sent;
  const Frame sent = run_.queue.front().frame;
  const double power = run_.queue.front().tx_power_dbm;
  run_.queue.erase(run_.queue.begin());
  if (on_sent_) on_sent_(sent, power);
  try_send();
}

}  // namespace aedbmls::sim
