#pragma once

/// Network device: one radio (PHY + MAC pair) on a node.
///
/// Upper layers (applications) call `send`; decoded frames are delivered
/// through the node's application dispatch.  The device owns its PHY and
/// MAC; the channel holds a non-owning pointer to the PHY.

#include <memory>

#include "common/types.hpp"
#include "sim/core/simulator.hpp"
#include "sim/net/csma_mac.hpp"
#include "sim/net/frame.hpp"
#include "sim/net/wireless_phy.hpp"

namespace aedbmls::sim {

class NetDevice {
 public:
  /// Frame successfully decoded by the PHY, with its rx power.
  using RxCallback = std::function<void(const Frame&, double rx_dbm)>;
  using SentCallback = CsmaBroadcastMac::SentCallback;

  NetDevice(Simulator& simulator, NodeId node_id, PhyParams phy_params,
            CsmaBroadcastMac::Params mac_params, std::uint64_t mac_rng_seed);

  /// Broadcasts `frame` at `tx_power_dbm` (subject to CSMA contention).
  void send(Frame frame, double tx_power_dbm);

  /// Rearms PHY and MAC for a fresh run (see their `reset` docs); the
  /// radio objects and their callback wiring are reused.
  void reset(std::uint64_t mac_rng_seed) {
    phy_->reset();
    mac_->reset(mac_rng_seed);
  }

  void set_rx_callback(RxCallback callback);
  void set_sent_callback(SentCallback callback) {
    mac_->set_sent_callback(std::move(callback));
  }

  [[nodiscard]] WirelessPhy& phy() noexcept { return *phy_; }
  [[nodiscard]] const WirelessPhy& phy() const noexcept { return *phy_; }
  [[nodiscard]] CsmaBroadcastMac& mac() noexcept { return *mac_; }
  [[nodiscard]] const CsmaBroadcastMac& mac() const noexcept { return *mac_; }
  [[nodiscard]] NodeId node_id() const noexcept { return node_id_; }

 private:
  NodeId node_id_;
  std::unique_ptr<WirelessPhy> phy_;
  std::unique_ptr<CsmaBroadcastMac> mac_;
};

}  // namespace aedbmls::sim
