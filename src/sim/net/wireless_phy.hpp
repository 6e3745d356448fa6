#pragma once

/// Half-duplex wireless PHY with SINR-based reception.
///
/// Reception model (an ns-3 `InterferenceHelper` reduced to a threshold
/// decision): the PHY locks onto the first decodable frame that arrives
/// while it is idle, accumulates the *peak* concurrent interference power
/// seen during that frame, and at frame end delivers it iff
/// `signal / (noise + peak interference) >= sinr_threshold`.  Signals that
/// arrive while locked or transmitting contribute interference only.
/// Starting a transmission aborts any reception in progress (half duplex).
///
/// Carrier sense: the medium is busy while the PHY transmits, is locked on a
/// frame, or the total received power exceeds `cs_threshold_dbm` (so frames
/// from just outside decode range still inhibit the MAC, as in 802.11).

#include <cstdint>
#include <functional>
#include <optional>

#include "common/types.hpp"
#include "sim/core/simulator.hpp"
#include "sim/net/frame.hpp"

namespace aedbmls::sim {

class WirelessChannel;

/// Radio configuration shared by all nodes of a scenario (Table II-style).
struct PhyParams {
  double rx_sensitivity_dbm = -95.0;  ///< minimum decodable signal power
  double cs_threshold_dbm = -99.0;    ///< carrier-sense (energy detect) level
  double sinr_threshold_db = 6.0;     ///< min SINR for successful decode
  double noise_floor_dbm = -101.0;    ///< thermal noise + noise figure
  double interference_floor_dbm = -110.0;  ///< weaker signals are ignored
  double bitrate_bps = 1e6;           ///< broadcast basic rate (802.11b)
  Time preamble = microseconds(192);  ///< PHY preamble+header (long preamble)
  double max_tx_power_dbm = 16.02;    ///< radio maximum (Table II default)
  double min_tx_power_dbm = -60.0;    ///< radio minimum when adapting down

  friend constexpr bool operator==(const PhyParams&, const PhyParams&) = default;
};

class WirelessPhy {
 public:
  /// Called on every successfully decoded frame with its rx power.
  using RxCallback = std::function<void(const Frame&, double rx_dbm)>;
  /// Called when a transmission this PHY started has finished.
  using TxDoneCallback = std::function<void()>;

  enum class State : std::uint8_t { kIdle, kRx, kTx };

  WirelessPhy(Simulator& simulator, PhyParams params, NodeId node_id);

  /// Wires the PHY to its channel at attach slot `slot` (called by
  /// `WirelessChannel::attach`).
  void set_channel(WirelessChannel* channel, std::uint32_t slot) noexcept {
    channel_ = channel;
    channel_slot_ = slot;
  }

  /// This PHY's attach slot on its channel (O(1) sender lookup).
  [[nodiscard]] std::uint32_t channel_slot() const noexcept { return channel_slot_; }

  void set_receive_callback(RxCallback callback) { rx_callback_ = std::move(callback); }
  void set_tx_done_callback(TxDoneCallback callback) { tx_done_ = std::move(callback); }

  /// Airtime of a frame of `size_bytes` at the configured bitrate.
  [[nodiscard]] Time frame_duration(std::uint32_t size_bytes) const noexcept;

  /// Starts transmitting.  Power is clamped into the radio's range.
  /// Any reception in progress is aborted.  Returns false (and does
  /// nothing) if already transmitting.
  bool start_tx(Frame frame, double tx_power_dbm);

  /// A signal on the air at this PHY, as `signal_ended` must be told.
  struct Signal {
    double power_mw;
    std::uint64_t token;  ///< matches the signal's end to a lock
  };

  /// Channel-side entry point: a signal begins arriving at this PHY.  The
  /// channel runs `signal_ended` with the returned signal once its
  /// airtime has passed.
  Signal begin_rx(const Frame& frame, double rx_power_dbm);

  /// Channel-side entry point: a signal from `begin_rx` stops arriving.
  void signal_ended(Signal signal);

  /// 802.11-style clear channel assessment.
  [[nodiscard]] bool medium_busy() const noexcept;

  [[nodiscard]] State state() const noexcept { return run_.state; }
  [[nodiscard]] NodeId node_id() const noexcept { return node_id_; }
  [[nodiscard]] const PhyParams& params() const noexcept { return params_; }

  /// Counters for the statistics collectors and tests.
  struct Counters {
    std::uint64_t tx_frames = 0;        ///< transmissions started
    std::uint64_t rx_ok = 0;            ///< frames decoded successfully
    std::uint64_t rx_failed_sinr = 0;   ///< locked frames lost to interference
    std::uint64_t rx_aborted_by_tx = 0; ///< receptions cut by our own tx
    std::uint64_t rx_missed_busy = 0;   ///< decodable frames while not idle
    std::uint64_t rx_below_sensitivity = 0;  ///< signals too weak to decode
  };
  [[nodiscard]] const Counters& counters() const noexcept { return run_.counters; }

  /// The frame being decoded (state kRx).
  struct Lock {
    Frame frame;
    double signal_mw = 0.0;
    double peak_interference_mw = 0.0;
    std::uint64_t token = 0;  ///< matches signal-end events to the lock
  };

  /// Everything a run changes.  The default is a just-built radio.
  struct RunState {
    State state = State::kIdle;
    double total_rx_mw = 0.0;  ///< sum of all ongoing signals at antenna
    std::optional<Lock> lock;  ///< frame being decoded (state kRx)
    std::uint64_t next_token = 1;
    std::uint64_t tx_sequence = 0;
    Counters counters;
  };

  /// Rearms the radio for a fresh run.  Parameters, channel wiring and
  /// callbacks are kept — pooled simulation contexts bind those once at
  /// graph build.
  void reset() noexcept { run_ = RunState{}; }
  void save(RunState& into) const noexcept { into = run_; }
  void restore(const RunState& from) noexcept { run_ = from; }

 private:
  void finish_tx();

  Simulator& simulator_;
  PhyParams params_;
  NodeId node_id_;
  WirelessChannel* channel_ = nullptr;
  std::uint32_t channel_slot_ = 0;
  RxCallback rx_callback_;
  TxDoneCallback tx_done_;

  RunState run_;
};

}  // namespace aedbmls::sim
