#pragma once

/// Periodic hello-beacon application (AEDB's neighbor discovery substrate).
///
/// Beacons are sent at the default transmission power every `period`
/// (1 s in the paper) starting from `start_at` plus a random phase that
/// desynchronises nodes.  Every received beacon updates the node's
/// `NeighborTable`.  The table is shared with the AEDB application on the
/// same node (it owns it; AEDB holds a reference).

#include "common/rng.hpp"
#include "sim/apps/neighbor_table.hpp"
#include "sim/net/node.hpp"

namespace aedbmls::sim {

class BeaconApp final : public Application {
 public:
  struct Config {
    Time start_at = aedbmls::sim::seconds(27);  ///< first beacon window opens
    Time period = aedbmls::sim::seconds(1);     ///< beacon interval (Table II: 1 s)
    Time jitter = milliseconds(10);             ///< per-beacon random jitter
    std::uint32_t beacon_bytes = 50;            ///< beacon frame size
    double tx_power_dbm = 16.02;                ///< beacons use default power
    Time neighbor_expiry = seconds_d(2.5);      ///< table entry lifetime

    friend constexpr bool operator==(const Config&, const Config&) = default;
  };

  /// `stream` must be unique per node (derive from the network stream).
  BeaconApp(Simulator& simulator, Node& node, Config config, CounterRng stream);

  void start() override;
  void on_receive(const Frame& frame, double rx_dbm) override;

  /// Everything a run changes.  `{.rng = stream.engine(), .table =
  /// NeighborTable(config.neighbor_expiry)}` is a just-built app.
  struct RunState {
    Xoshiro256 rng;
    NeighborTable table;
    std::uint64_t sent = 0;
    std::uint64_t heard = 0;
  };

  /// Re-arms the app for a fresh run, bitwise-equivalent to constructing a
  /// new app with these arguments (pooled contexts reuse the installed app
  /// object, and the table its slot storage).  Call `start()` afterwards
  /// to schedule the first beacon.
  void reset(Config config, CounterRng stream) {
    config_ = config;
    restore(RunState{.rng = stream.engine(),
                     .table = NeighborTable(config.neighbor_expiry)});
  }
  void save(RunState& into) const { into = run_; }
  /// Copy-assigns, so the table keeps its slot storage.
  void restore(const RunState& from) { run_ = from; }

  /// The neighbor table maintained by this app (purged on access).
  [[nodiscard]] NeighborTable& neighbor_table() noexcept { return run_.table; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t beacons_sent() const noexcept { return run_.sent; }
  [[nodiscard]] std::uint64_t beacons_heard() const noexcept { return run_.heard; }

 private:
  void send_beacon();

  Config config_;
  RunState run_;
};

}  // namespace aedbmls::sim
