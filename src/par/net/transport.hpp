#pragma once

/// Byte-oriented message transport — the seam that lets one campaign world
/// span threads, processes and machines.
///
/// A `Transport` endpoint is one rank's connection to a world of
/// `world_size()` ranks, carrying opaque byte payloads point-to-point.  Two
/// implementations exist:
///
///  * `InProcWorld` (below) — every endpoint is backed by a blocking
///    `par::Mailbox`; no sockets, so the scheduler's tests run
///    deterministically in one process.
///  * `TcpTransport` (tcp_transport.hpp) — length-prefixed frames over
///    sockets with a connect/accept rank-assignment handshake, retry with
///    jittered backoff, and heartbeat-based peer-death detection.
///
/// Peer failure is part of the interface, not an exception path: when a
/// peer's endpoint closes (gracefully or by death/deadline) every other
/// endpoint receives one `Message{kPeerLeft, rank}`, which lets schedulers
/// requeue the dead peer's work instead of deadlocking on it.

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace aedbmls::par::net {

/// One received event: an application payload from a peer, or the
/// transport's notification that a peer left the world.
struct Message {
  enum class Kind {
    kData,      ///< `payload` is an application message from rank `from`
    kPeerLeft,  ///< rank `from` disconnected/died; `payload` says why
  };
  Kind kind = Kind::kData;
  std::size_t from = 0;
  std::string payload;
};

/// One rank's endpoint in a message-passing world.  Thread-safety contract:
/// `send` and `recv` may be called from different threads; each is also
/// individually safe to call concurrently with `close`.
class Transport {
 public:
  virtual ~Transport() = default;

  /// This endpoint's rank in [0, world_size()).
  [[nodiscard]] virtual std::size_t rank() const = 0;

  /// Number of ranks in the world, this endpoint included.
  [[nodiscard]] virtual std::size_t world_size() const = 0;

  /// Queues `payload` for rank `to`.  Returns false when the peer is gone
  /// or the endpoint is closed — senders race peer death by design, so a
  /// failed send is an event to handle, not a programming error.
  virtual bool send(std::size_t to, std::string payload) = 0;

  /// Blocks for the next message (data or peer-departure).  Returns
  /// nullopt only after `close()` once the inbox is drained.
  [[nodiscard]] virtual std::optional<Message> recv() = 0;

  /// Withdraws this endpoint from the world: peers observe a
  /// `kPeerLeft`, local receivers drain then see nullopt.  Idempotent.
  virtual void close() = 0;
};

/// The in-process world: `size` endpoints over blocking `par::Mailbox`
/// inboxes.  Endpoint r must be driven by the thread playing rank r.
class InProcWorld {
 public:
  explicit InProcWorld(std::size_t size);
  ~InProcWorld();
  InProcWorld(const InProcWorld&) = delete;
  InProcWorld& operator=(const InProcWorld&) = delete;

  [[nodiscard]] std::size_t size() const noexcept;

  /// Rank `rank`'s endpoint; valid for the world's lifetime.
  [[nodiscard]] Transport& endpoint(std::size_t rank);

  struct Shared;  // implementation detail, defined in inproc_transport.cpp

 private:
  std::shared_ptr<Shared> shared_;
  std::vector<std::unique_ptr<Transport>> endpoints_;
};

}  // namespace aedbmls::par::net
