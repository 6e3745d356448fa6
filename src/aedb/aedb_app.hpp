#pragma once

/// The AEDB protocol (Fig. 1 of the paper; Ruiz & Bouvry 2010).
///
/// Distance-based broadcasting expressed in received power: a node is a
/// *potential forwarder* of a message only while the strongest copy it has
/// heard is still weaker than the border threshold (it sits in the
/// forwarding area of every sender it heard).  Potential forwarders wait a
/// random delay, keep listening, and on expiry either drop (a stronger copy
/// arrived meanwhile) or forward with an adapted transmission power:
///
///  * dense neighbourhood (more than `neighbors_threshold` neighbors inside
///    the forwarding area): power to reach the forwarding-area neighbor
///    whose predicted rx power is closest to the border — intentionally
///    dropping farther one-hop neighbors to save energy;
///  * sparse neighbourhood: power to reach the furthest neighbor that has
///    not already been heard forwarding this message.
///
/// In both cases the power delivers `rx_sensitivity + margin_threshold` at
/// the chosen target (the margin absorbs mobility between beacon and data).
///
/// Note on the paper's pseudocode: its variable `pmin` is described as the
/// "minimum signal strength" but is updated when `p > pmin` and causes a
/// drop when it *exceeds* the border threshold.  Both the update and the
/// drop rule are only consistent if the variable tracks the power of the
/// *nearest* (strongest) sender — the standard distance-based rule — so this
/// implementation tracks `strongest_rx_dbm = max over copies` and drops when
/// it exceeds the border (EXPERIMENTS.md "Deviations").

#include <vector>

#include "aedb/aedb_params.hpp"
#include "aedb/broadcast_stats.hpp"
#include "common/rng.hpp"
#include "sim/apps/beacon_app.hpp"
#include "sim/net/node.hpp"

namespace aedbmls::aedb {

class AedbApp final : public sim::Application {
 public:
  struct Config {
    AedbParams params;
    double default_tx_dbm = 16.02;  ///< Table II default transmission power
    std::uint32_t data_bytes = 256; ///< broadcast payload size
  };

  /// `beacons` supplies the neighbor table; `collector` the metrics sink.
  /// Both must outlive the app.  `stream` must be unique per node.
  AedbApp(sim::Simulator& simulator, sim::Node& node, Config config,
          sim::BeaconApp& beacons, BroadcastStatsCollector& collector,
          CounterRng stream);

  /// Starts a dissemination from this node (the source transmits at the
  /// default power; forwarding-power adaptation applies to relays only).
  /// The collector's `begin()` must have been called for this message first.
  void originate(MessageId message);

  void on_receive(const sim::Frame& frame, double rx_dbm) override;

  /// Re-arms the protocol for a fresh run (new candidate parameters, fresh
  /// RNG stream, message ledger and counters cleared), bitwise-equivalent
  /// to constructing a new app.  The beacon-app and collector references
  /// are retained — pooled contexts keep both alive across runs — and so
  /// is the message-slot storage (capacity only; no state survives).
  void reset(Config config, CounterRng stream) {
    config_ = config;
    rng_ = stream.engine();
    messages_used_ = 0;
    counters_ = Counters{};
  }

  /// Decision trace counters (tests / trace example).
  struct Counters {
    std::uint64_t first_receptions = 0;
    std::uint64_t duplicate_receptions = 0;
    std::uint64_t forwards = 0;
    std::uint64_t drops_on_arrival = 0;  ///< inside border at first copy
    std::uint64_t drops_after_wait = 0;  ///< stronger copy arrived during delay
    std::uint64_t dense_mode_forwards = 0;
    std::uint64_t sparse_mode_forwards = 0;
  };
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// The forwarding power this node would use right now for a message heard
  /// from `heard_from` (exposed for unit tests of the adaptation rule).
  [[nodiscard]] double compute_forward_power(
      const std::vector<NodeId>& heard_from);

 private:
  struct MessageState {
    MessageId id = 0;                 ///< slot key (valid below messages_used_)
    double strongest_rx_dbm = -1e30;  ///< paper's `pmin`, see header note
    bool waiting = false;
    bool done = false;
    std::vector<NodeId> heard_from;   ///< senders of this message we decoded
  };

  /// The state slot for `message`, created on first touch.  A scenario run
  /// carries one broadcast (rarely more in unit tests), so slots live in a
  /// small flat pool scanned linearly; reset() recycles the slots — and the
  /// `heard_from` capacity inside them — so pooled steady-state runs never
  /// allocate here.
  [[nodiscard]] MessageState& message_state(MessageId message);

  void forward_decision(MessageId message);

  Config config_;
  sim::BeaconApp& beacons_;
  BroadcastStatsCollector& collector_;
  Xoshiro256 rng_;
  std::vector<MessageState> messages_;  ///< slot pool; first messages_used_ live
  std::size_t messages_used_ = 0;
  Counters counters_;
};

}  // namespace aedbmls::aedb
