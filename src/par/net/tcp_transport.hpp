#pragma once

/// TCP implementation of `par::net::Transport` — a campaign world spanning
/// processes and machines.
///
/// Topology: a star.  Rank 0 (the coordinator) listens; workers connect
/// and are assigned ranks 1..N in accept order by the handshake
/// (`kHello` carrying the protocol magic, answered by `kWelcome` carrying
/// the assigned rank and world size).  Rank 0 can reach every worker;
/// workers reach rank 0 — exactly the traffic pattern of a pull-scheduled
/// campaign.  All traffic is length-prefixed frames (par/net/frame.hpp).
///
/// Failure semantics:
///  * `connect()` retries transient connection errors with jittered
///    exponential backoff and throws a descriptive std::runtime_error when
///    the attempt budget is exhausted — a worker racing its coordinator's
///    startup waits; a misconfigured one fails loudly instead of hanging.
///  * Both sides beacon `kHeartbeat` frames every `heartbeat_interval` and
///    declare a peer dead when nothing (data or heartbeat) arrived within
///    `peer_deadline`; death, like any disconnect, surfaces as one
///    `Message{kPeerLeft}` so the scheduler can requeue the peer's work.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "par/net/frame.hpp"
#include "par/net/transport.hpp"

namespace aedbmls::par::net {

struct TcpOptions {
  /// Cadence of liveness beacons (0 disables sending heartbeats — a test
  /// knob for exercising peer-death detection).
  std::chrono::milliseconds heartbeat_interval{1000};
  /// A peer from which nothing arrived for this long is declared dead
  /// (0 disables the deadline; disconnects are then the only death signal).
  std::chrono::milliseconds peer_deadline{10000};
  /// Budget for the rank-assignment handshake on a fresh connection.
  std::chrono::milliseconds handshake_timeout{10000};
  /// First connect-retry backoff; doubles per attempt (capped at 64x) with
  /// deterministic per-process jitter to de-synchronise worker fleets.
  std::chrono::milliseconds connect_backoff_base{100};
  /// Connection attempts before `connect()` gives up and throws.
  std::size_t connect_attempts = 30;
  /// Ceiling on a single frame's payload (guards the length prefix).
  std::size_t max_frame_bytes = FrameDecoder::kDefaultMaxPayloadBytes;
};

class TcpTransport;

/// The coordinator's accept side, split from the transport so callers can
/// bind (learning the ephemeral port when `port == 0`) before any worker
/// connects.
class TcpListener {
 public:
  /// Binds and listens on `port` (0 picks an ephemeral port).  Throws
  /// std::runtime_error when the socket cannot be bound.
  explicit TcpListener(std::uint16_t port, TcpOptions options = {});
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// The bound port (the ephemeral one when constructed with 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Blocks until `workers` peers complete the handshake, assigning ranks
  /// 1..workers in accept order, and returns rank 0's endpoint of the
  /// (workers + 1)-rank world.  Connections that fail the handshake are
  /// dropped and do not consume a worker slot.
  [[nodiscard]] std::unique_ptr<TcpTransport> accept_workers(
      std::size_t workers);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  TcpOptions options_;
};

class TcpTransport final : public Transport {
 public:
  /// Worker side: connects to the coordinator with jittered-backoff
  /// retries and performs the rank-assignment handshake.  Throws
  /// std::runtime_error on retry exhaustion or a handshake violation.
  [[nodiscard]] static std::unique_ptr<TcpTransport> connect(
      const std::string& host, std::uint16_t port, TcpOptions options = {});

  ~TcpTransport() override;

  [[nodiscard]] std::size_t rank() const override;
  [[nodiscard]] std::size_t world_size() const override;
  bool send(std::size_t to, std::string payload) override;
  [[nodiscard]] std::optional<Message> recv() override;
  void close() override;

 private:
  friend class TcpListener;
  struct Impl;
  explicit TcpTransport(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace aedbmls::par::net
