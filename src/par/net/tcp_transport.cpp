#include "par/net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/clock.hpp"
#include "common/fault.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "par/mailbox.hpp"

namespace aedbmls::par::net {
namespace {

constexpr const char* kNetMagic = "aedbmls-net 1";

std::string errno_string(int err) {
  return std::string(std::strerror(err));
}

void set_recv_timeout(int fd, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// Writes the whole buffer; false on any error.  MSG_NOSIGNAL: a peer
/// dying mid-write must surface as EPIPE, not kill the process.
bool write_all(int fd, const std::string& bytes) {
  if (fault::fire("net.send.short_write")) {
    // Emit a prefix, then fail as if the connection reset mid-write: the
    // peer observes a truncated frame, we observe a dead send path.
    ::send(fd, bytes.data(), bytes.size() / 2, MSG_NOSIGNAL);
    errno = ECONNRESET;
    return false;
  }
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads frames off a fresh (handshaking) connection until one complete
/// frame is available.  Returns nullopt on timeout/EOF/framing error.
std::optional<Frame> read_one_frame(int fd, std::size_t max_frame_bytes) {
  FrameDecoder decoder(max_frame_bytes);
  char buffer[4096];
  for (;;) {
    try {
      if (auto frame = decoder.next()) return frame;
    } catch (const std::invalid_argument&) {
      return std::nullopt;
    }
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return std::nullopt;  // timeout (EAGAIN), reset, or EOF
    }
    try {
      decoder.feed({buffer, static_cast<std::size_t>(n)});
    } catch (const std::invalid_argument&) {
      return std::nullopt;
    }
  }
}

}  // namespace

struct TcpTransport::Impl {
  struct Peer {
    std::size_t rank = 0;
    int fd = -1;
    std::mutex write_mutex;
    std::atomic<std::int64_t> last_seen_ns{0};
    std::atomic<bool> open{true};
    std::atomic<bool> left_reported{false};
    std::thread reader;
  };

  std::size_t rank = 0;
  std::size_t world_size = 0;
  TcpOptions options;
  std::vector<std::unique_ptr<Peer>> peers;
  Mailbox<Message> inbox;
  std::thread monitor;
  std::mutex monitor_mutex;
  std::condition_variable monitor_cv;
  std::atomic<bool> closing{false};
  std::atomic<bool> closed{false};

  /// The peer behind rank `to`: workers hold rank 0 at slot 0, the
  /// coordinator holds rank r at slot r - 1.
  Peer* peer_for(std::size_t to) {
    if (rank == 0) {
      if (to == 0 || to >= world_size) return nullptr;
      return peers[to - 1].get();
    }
    return to == 0 ? peers[0].get() : nullptr;
  }

  bool write_frame(Peer& peer, FrameType type, const std::string& payload) {
    if (!peer.open.load(std::memory_order_acquire)) return false;
    std::lock_guard lock(peer.write_mutex);
    if (!write_all(peer.fd, encode_frame(type, payload))) {
      report_left(peer, "send failed: " + errno_string(errno));
      return false;
    }
    return true;
  }

  /// Declares `peer` gone exactly once: one kPeerLeft lands in the inbox
  /// and the socket is shut down so its reader unblocks.  Safe from any
  /// thread (reader, monitor, sender).
  void report_left(Peer& peer, const std::string& reason) {
    peer.open.store(false, std::memory_order_release);
    // Claim the report before shutting the socket down: the shutdown wakes
    // the peer's blocked reader, which would otherwise race us here and
    // publish its generic "connection closed" over our specific reason.
    if (!peer.left_reported.exchange(true)) {
      inbox.send(Message{Message::Kind::kPeerLeft, peer.rank, reason});
    }
    ::shutdown(peer.fd, SHUT_RDWR);
  }

  void reader_loop(Peer& peer) {
    FrameDecoder decoder(options.max_frame_bytes);
    char buffer[1 << 16];
    std::string reason;
    for (;;) {
      const ssize_t n = ::recv(peer.fd, buffer, sizeof buffer, 0);
      if (n == 0) {
        reason = decoder.mid_frame() ? "connection closed mid-frame "
                                       "(truncated frame)"
                                     : "connection closed";
        break;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        reason = "recv failed: " + errno_string(errno);
        break;
      }
      peer.last_seen_ns.store(monotonic_ns(), std::memory_order_release);
      if (fault::fire("net.frame.corrupt")) buffer[0] ^= 0x20;
      try {
        decoder.feed({buffer, static_cast<std::size_t>(n)});
        bool done = false;
        while (auto frame = decoder.next()) {
          switch (frame->type) {
            case FrameType::kData:
              // A TCP stream cannot skip one frame and resync, so a
              // dropped frame severs the connection; the elastic layer's
              // requeue keeps outputs byte-identical regardless.
              if (fault::fire("net.frame.drop")) {
                reason = "dropped data frame (fault injection)";
                done = true;
                break;
              }
              inbox.send(Message{Message::Kind::kData, peer.rank,
                                 std::move(frame->payload)});
              break;
            case FrameType::kHeartbeat:
              break;  // last_seen already refreshed
            case FrameType::kBye:
              reason = "peer closed";
              done = true;
              break;
            default:
              reason = "handshake frame after handshake";
              done = true;
              break;
          }
          if (done) break;
        }
        if (done) break;
      } catch (const std::invalid_argument& error) {
        reason = std::string("malformed frame: ") + error.what();
        break;
      }
    }
    report_left(peer, reason);
  }

  /// One thread beacons heartbeats to every peer and enforces the receive
  /// deadline; peers that went silent past the deadline are declared dead.
  void monitor_loop() {
    const auto heartbeat = options.heartbeat_interval;
    const auto deadline = options.peer_deadline;
    std::chrono::milliseconds period{0};
    if (heartbeat.count() > 0) period = heartbeat;
    if (deadline.count() > 0) {
      const auto check = std::max<std::chrono::milliseconds>(
          deadline / 4, std::chrono::milliseconds(1));
      period = period.count() > 0 ? std::min(period, check) : check;
    }
    if (period.count() == 0) return;  // nothing to do
    std::unique_lock lock(monitor_mutex);
    while (!closing.load(std::memory_order_acquire)) {
      monitor_cv.wait_for(lock, period);
      if (closing.load(std::memory_order_acquire)) break;
      for (auto& peer : peers) {
        if (!peer->open.load(std::memory_order_acquire)) continue;
        if (heartbeat.count() > 0) write_frame(*peer, FrameType::kHeartbeat, "");
        if (deadline.count() > 0) {
          const auto silent_ns =
              monotonic_ns() - peer->last_seen_ns.load(std::memory_order_acquire);
          if (silent_ns > deadline.count() * 1'000'000) {
            report_left(*peer, "heartbeat deadline exceeded");
          }
        }
      }
    }
  }

  void start() {
    for (auto& peer : peers) {
      peer->last_seen_ns.store(monotonic_ns(), std::memory_order_release);
      peer->reader = std::thread([this, p = peer.get()] { reader_loop(*p); });
    }
    monitor = std::thread([this] { monitor_loop(); });
  }

  void close() {
    if (closed.exchange(true)) return;
    closing.store(true, std::memory_order_release);
    // Drain order matters: close the inbox first so local receivers see
    // the world end, then announce and tear down the connections.
    inbox.close();
    for (auto& peer : peers) {
      if (peer->open.load(std::memory_order_acquire)) {
        write_frame(*peer, FrameType::kBye, "");
      }
      peer->open.store(false, std::memory_order_release);
      ::shutdown(peer->fd, SHUT_RDWR);
    }
    monitor_cv.notify_all();
    if (monitor.joinable()) monitor.join();
    for (auto& peer : peers) {
      if (peer->reader.joinable()) peer->reader.join();
      ::close(peer->fd);
      peer->fd = -1;
    }
  }
};

TcpTransport::TcpTransport(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {
  impl_->start();
}

TcpTransport::~TcpTransport() { close(); }

std::size_t TcpTransport::rank() const { return impl_->rank; }

std::size_t TcpTransport::world_size() const { return impl_->world_size; }

bool TcpTransport::send(std::size_t to, std::string payload) {
  if (impl_->closed.load(std::memory_order_acquire)) return false;
  Impl::Peer* peer = impl_->peer_for(to);
  AEDB_REQUIRE(peer != nullptr, "no connection to that rank");
  return impl_->write_frame(*peer, FrameType::kData, payload);
}

std::optional<Message> TcpTransport::recv() { return impl_->inbox.recv(); }

void TcpTransport::close() { impl_->close(); }

TcpListener::TcpListener(std::uint16_t port, TcpOptions options)
    : options_(options) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error("cannot create listen socket: " +
                             errno_string(errno));
  }
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd_, 16) < 0) {
    const std::string error = errno_string(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("cannot listen on port " + std::to_string(port) +
                             ": " + error);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<TcpTransport> TcpListener::accept_workers(
    std::size_t workers) {
  AEDB_REQUIRE(workers >= 1, "a TCP world needs at least one worker");
  auto impl = std::make_unique<TcpTransport::Impl>();
  impl->rank = 0;
  impl->world_size = workers + 1;
  impl->options = options_;

  while (impl->peers.size() < workers) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("accept failed: " + errno_string(errno));
    }
    // Handshake under a deadline: a connection that never says a valid
    // hello is dropped and does not consume a worker slot.
    set_recv_timeout(fd, options_.handshake_timeout);
    const auto hello = read_one_frame(fd, options_.max_frame_bytes);
    if (!hello || hello->type != FrameType::kHello ||
        hello->payload != kNetMagic) {
      log_warn("dropping connection with a bad handshake",
               hello ? " (wrong hello)" : " (timeout/garbage)");
      ::close(fd);
      continue;
    }
    const std::size_t rank = impl->peers.size() + 1;
    std::ostringstream welcome;
    welcome << rank << ' ' << impl->world_size;
    if (!write_all(fd, encode_frame(FrameType::kWelcome, welcome.str()))) {
      ::close(fd);
      continue;
    }
    set_recv_timeout(fd, std::chrono::milliseconds(0));  // back to blocking
    set_nodelay(fd);
    auto peer = std::make_unique<TcpTransport::Impl::Peer>();
    peer->rank = rank;
    peer->fd = fd;
    impl->peers.push_back(std::move(peer));
  }
  return std::unique_ptr<TcpTransport>(new TcpTransport(std::move(impl)));
}

std::unique_ptr<TcpTransport> TcpTransport::connect(const std::string& host,
                                                    std::uint16_t port,
                                                    TcpOptions options) {
  int fd = -1;
  std::string last_error = "no attempt made";
  for (std::size_t attempt = 0; attempt < options.connect_attempts;
       ++attempt) {
    if (attempt > 0) {
      // Jittered exponential backoff: deterministic per (process, attempt)
      // so a fleet of workers launched together does not hammer the
      // coordinator in lockstep.  The jitter never affects results — only
      // when the connection lands.
      const auto base = options.connect_backoff_base.count();
      const std::int64_t scaled =
          base * static_cast<std::int64_t>(1ll << std::min<std::size_t>(
                                               attempt - 1, 6));
      const std::uint64_t jitter_seed =
          (static_cast<std::uint64_t>(::getpid()) << 32) ^ attempt;
      const std::int64_t jitter =
          base > 0 ? static_cast<std::int64_t>(mix64(jitter_seed) %
                                               static_cast<std::uint64_t>(
                                                   base + 1))
                   : 0;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(scaled + jitter));
    }
    if (fault::fire("net.connect.refuse")) {
      last_error = "connection refused (fault injection)";
      continue;
    }
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* resolved = nullptr;
    const int gai = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                                  &hints, &resolved);
    if (gai != 0) {
      last_error = std::string("cannot resolve host: ") + ::gai_strerror(gai);
      continue;
    }
    int candidate = -1;
    for (addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
      candidate = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (candidate < 0) continue;
      if (::connect(candidate, ai->ai_addr, ai->ai_addrlen) == 0) break;
      last_error = "connect failed: " + errno_string(errno);
      ::close(candidate);
      candidate = -1;
    }
    ::freeaddrinfo(resolved);
    if (candidate >= 0) {
      fd = candidate;
      break;
    }
  }
  if (fd < 0) {
    std::ostringstream os;
    os << "cannot connect to " << host << ":" << port << " after "
       << options.connect_attempts << " attempts (" << last_error
       << ") — is the coordinator serving?";
    throw std::runtime_error(os.str());
  }

  set_nodelay(fd);
  if (!write_all(fd, encode_frame(FrameType::kHello, kNetMagic))) {
    const std::string error = errno_string(errno);
    ::close(fd);
    throw std::runtime_error("handshake send failed: " + error);
  }
  set_recv_timeout(fd, options.handshake_timeout);
  const auto welcome = read_one_frame(fd, options.max_frame_bytes);
  std::size_t rank = 0;
  std::size_t world_size = 0;
  if (welcome && welcome->type == FrameType::kWelcome) {
    std::istringstream in(welcome->payload);
    in >> rank >> world_size;
    if (!in || rank == 0 || rank >= world_size) rank = 0;
  }
  if (rank == 0) {
    ::close(fd);
    throw std::runtime_error(
        "handshake failed: no valid welcome from the coordinator (version "
        "mismatch, or the port is not an aedbmls campaign coordinator?)");
  }
  set_recv_timeout(fd, std::chrono::milliseconds(0));

  auto impl = std::make_unique<Impl>();
  impl->rank = rank;
  impl->world_size = world_size;
  impl->options = options;
  auto peer = std::make_unique<Impl::Peer>();
  peer->rank = 0;
  peer->fd = fd;
  impl->peers.push_back(std::move(peer));
  return std::unique_ptr<TcpTransport>(new TcpTransport(std::move(impl)));
}

}  // namespace aedbmls::par::net
