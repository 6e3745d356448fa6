#pragma once

/// Over-the-air frame header.
///
/// Frames are tiny value types (stored once per transmission by the
/// channel, copied into a PHY's lock and the MAC queue).  The
/// transmission power is carried in the header — AEDB is a cross-layer
/// protocol: receivers use (tx_power_dbm - rx power) as the link's path-loss
/// estimate when adapting their own forwarding power.

#include <cstdint>

#include "common/types.hpp"

namespace aedbmls::sim {

enum class FrameKind : std::uint8_t {
  kBeacon,  ///< 1 Hz hello used for neighbor discovery
  kData,    ///< broadcast payload being disseminated
};

struct Frame {
  FrameKind kind = FrameKind::kData;
  NodeId sender = kInvalidNode;    ///< node transmitting this frame
  NodeId origin = kInvalidNode;    ///< original source of the broadcast (data only)
  MessageId message_id = 0;        ///< broadcast message identity (data only)
  std::uint32_t size_bytes = 0;    ///< payload + headers, in bytes
  double tx_power_dbm = 0.0;       ///< power this frame was sent with
  std::uint64_t sequence = 0;      ///< per-device transmit sequence number
};

}  // namespace aedbmls::sim
