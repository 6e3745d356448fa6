/// par/net: the byte-transport seam under the elastic campaign service.
/// Covers the frame codec (round-trips, incremental decode, malformed and
/// truncated input), the in-process world (delivery + departure
/// semantics over Mailbox inboxes), and the TCP
/// transport (handshake rank assignment, bidirectional traffic, graceful
/// and heartbeat-deadline departures, connect-retry exhaustion, and
/// malformed-frame peer drops).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "par/net/frame.hpp"
#include "par/net/tcp_transport.hpp"
#include "par/net/transport.hpp"
#include "seeded_mutants.hpp"

namespace aedbmls::par::net {
namespace {

using namespace std::chrono_literals;

TEST(FrameCodec, RoundTripsBinaryPayloads) {
  const std::string binary("\x00\xFF\n ab\x7F", 7);
  FrameDecoder decoder;
  decoder.feed(encode_frame(FrameType::kData, binary));
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kData);
  EXPECT_EQ(frame->payload, binary);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(FrameCodec, EmptyPayloadIsAFrame) {
  FrameDecoder decoder;
  decoder.feed(encode_frame(FrameType::kHeartbeat, ""));
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kHeartbeat);
  EXPECT_TRUE(frame->payload.empty());
}

TEST(FrameCodec, DecodesByteByByteAcrossFrameBoundaries) {
  const std::string stream = encode_frame(FrameType::kHello, "first") +
                             encode_frame(FrameType::kBye, "second");
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (const char byte : stream) {
    decoder.feed(std::string_view(&byte, 1));
    while (auto frame = decoder.next()) frames.push_back(std::move(*frame));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  EXPECT_EQ(frames[0].payload, "first");
  EXPECT_EQ(frames[1].type, FrameType::kBye);
  EXPECT_EQ(frames[1].payload, "second");
}

TEST(FrameCodec, MidFrameReportsTruncation) {
  const std::string whole = encode_frame(FrameType::kData, "payload");
  FrameDecoder decoder;
  decoder.feed(std::string_view(whole).substr(0, whole.size() - 2));
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.mid_frame());
}

TEST(FrameCodec, RejectsUnknownTypeAndStaysPoisoned) {
  FrameDecoder decoder;
  const char garbage[] = {'\x2A', 0, 0, 0, 0};
  EXPECT_THROW(decoder.feed(std::string_view(garbage, sizeof garbage)),
               std::invalid_argument);
  // Poisoned permanently: a desynchronised stream cannot be trusted again.
  EXPECT_THROW(decoder.next(), std::invalid_argument);
  EXPECT_THROW(decoder.feed("x"), std::invalid_argument);
}

TEST(FrameCodec, RejectsOversizedLength) {
  FrameDecoder decoder(/*max_payload_bytes=*/16);
  EXPECT_THROW(decoder.feed(encode_frame(FrameType::kData,
                                         std::string(17, 'x'))),
               std::invalid_argument);
}

TEST(FrameCodec, RejectsGarbageAfterAValidFrame) {
  FrameDecoder decoder;
  const char garbage[] = {'\x63', 0, 0, 0, 0};
  // The valid frame decodes; the trailing garbage header is reported as
  // soon as it is visible — by the same next() call that consumed the
  // valid frame.
  decoder.feed(encode_frame(FrameType::kData, "ok"));
  decoder.feed(std::string_view(garbage, sizeof garbage));
  EXPECT_THROW(decoder.next(), std::invalid_argument);
}

TEST(FrameCodec, SeededMutantsYieldWholeFramesThenWaitOrThrow) {
  // Seeded mutation harness (the cell log's pattern): a frame stream cut
  // at every byte, seeded byte flips, seeded splices of another stream,
  // each fed in seeded chunk sizes under a small payload ceiling.  The
  // decoder yields only whole frames of known types — re-encoded, they
  // are a prefix of the mutant — then either waits for more bytes or
  // throws std::invalid_argument, and after a throw throws on every call.
  constexpr std::size_t kCeiling = 64;
  std::string stream;
  for (const auto& [type, size] :
       {std::pair{FrameType::kHello, 13}, std::pair{FrameType::kWelcome, 8},
        std::pair{FrameType::kData, 0}, std::pair{FrameType::kData, 64},
        std::pair{FrameType::kHeartbeat, 0}, std::pair{FrameType::kBye, 3}}) {
    stream += encode_frame(type, std::string(static_cast<std::size_t>(size),
                                             static_cast<char>('a' + size)));
  }
  const std::string donor =
      encode_frame(FrameType::kData, std::string(kCeiling + 1, 'x')) +
      encode_frame(FrameType::kWelcome, std::string("\x00\xFF\x05", 3));
  Xoshiro256 rng(20261017);

  std::size_t checked = 0;
  std::size_t refused = 0;
  auto check = [&](const std::string& mutant) {
    ++checked;
    FrameDecoder decoder(kCeiling);
    std::string yielded;
    bool threw = false;
    try {
      for (std::size_t at = 0; at < mutant.size();) {
        const std::size_t chunk = std::min<std::size_t>(
            mutant.size() - at, 1 + rng.uniform_int(std::uint64_t{16}));
        decoder.feed(std::string_view(mutant).substr(at, chunk));
        at += chunk;
        while (auto frame = decoder.next()) {
          const auto type = static_cast<std::uint8_t>(frame->type);
          ASSERT_GE(type, static_cast<std::uint8_t>(FrameType::kHello));
          ASSERT_LE(type, static_cast<std::uint8_t>(FrameType::kBye));
          ASSERT_LE(frame->payload.size(), kCeiling);
          yielded += encode_frame(frame->type, frame->payload);
        }
      }
    } catch (const std::invalid_argument&) {
      threw = true;
    } catch (const std::exception& error) {
      FAIL() << "decoder threw " << error.what();
    }
    ASSERT_EQ(mutant.compare(0, yielded.size(), yielded), 0)
        << "yielded bytes are not a prefix of the stream";
    if (threw) {
      ++refused;
      EXPECT_THROW(decoder.feed("x"), std::invalid_argument);
      EXPECT_THROW((void)decoder.next(), std::invalid_argument);
    } else {
      EXPECT_FALSE(decoder.next().has_value());
      EXPECT_EQ(decoder.mid_frame(), yielded.size() < mutant.size());
    }
  };

  for (std::size_t cut = 0; cut <= stream.size() && !HasFatalFailure(); ++cut) {
    check(stream.substr(0, cut));
  }
  for (int trial = 0; trial < 2000 && !HasFatalFailure(); ++trial) {
    check(mutants::flip(stream, rng));
    check(mutants::splice(stream, donor, rng));
  }
  EXPECT_GT(checked, 4000u);
  EXPECT_GT(refused, 100u);
}

TEST(InProcWorld, DeliversDataBetweenRanks) {
  InProcWorld world(3);
  EXPECT_TRUE(world.endpoint(1).send(0, "from one"));
  EXPECT_TRUE(world.endpoint(2).send(0, "from two"));
  std::set<std::string> payloads;
  std::set<std::size_t> froms;
  for (int i = 0; i < 2; ++i) {
    const auto message = world.endpoint(0).recv();
    ASSERT_TRUE(message.has_value());
    EXPECT_EQ(message->kind, Message::Kind::kData);
    payloads.insert(message->payload);
    froms.insert(message->from);
  }
  EXPECT_EQ(payloads, (std::set<std::string>{"from one", "from two"}));
  EXPECT_EQ(froms, (std::set<std::size_t>{1, 2}));
}

TEST(InProcWorld, CloseBroadcastsPeerLeftAndRefusesSends) {
  InProcWorld world(2);
  world.endpoint(1).close();
  const auto message = world.endpoint(0).recv();
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->kind, Message::Kind::kPeerLeft);
  EXPECT_EQ(message->from, 1u);
  // The departed endpoint is unreachable, exactly like a dead socket.
  EXPECT_FALSE(world.endpoint(0).send(1, "too late"));
}

TEST(InProcWorld, RecvDrainsThenEndsAfterOwnClose) {
  InProcWorld world(2);
  EXPECT_TRUE(world.endpoint(1).send(0, "queued"));
  world.endpoint(0).close();
  const auto queued = world.endpoint(0).recv();
  ASSERT_TRUE(queued.has_value());
  EXPECT_EQ(queued->payload, "queued");
  EXPECT_FALSE(world.endpoint(0).recv().has_value());
}

TEST(TcpTransport, HandshakeAssignsRanksAndCarriesDataBothWays) {
  TcpOptions options;
  options.heartbeat_interval = 100ms;
  options.peer_deadline = 10000ms;
  TcpListener listener(0, options);
  ASSERT_NE(listener.port(), 0);

  std::vector<std::unique_ptr<TcpTransport>> workers(2);
  std::thread first([&] {
    workers[0] = TcpTransport::connect("127.0.0.1", listener.port(), options);
  });
  std::thread second([&] {
    workers[1] = TcpTransport::connect("127.0.0.1", listener.port(), options);
  });
  const auto coordinator = listener.accept_workers(2);
  first.join();
  second.join();

  EXPECT_EQ(coordinator->rank(), 0u);
  EXPECT_EQ(coordinator->world_size(), 3u);
  std::set<std::size_t> ranks{workers[0]->rank(), workers[1]->rank()};
  EXPECT_EQ(ranks, (std::set<std::size_t>{1, 2}));
  EXPECT_EQ(workers[0]->world_size(), 3u);

  // Workers -> coordinator.
  for (auto& worker : workers) {
    ASSERT_TRUE(worker->send(0, "ready " + std::to_string(worker->rank())));
  }
  std::set<std::string> received;
  for (int i = 0; i < 2; ++i) {
    const auto message = coordinator->recv();
    ASSERT_TRUE(message.has_value());
    ASSERT_EQ(message->kind, Message::Kind::kData);
    EXPECT_EQ(message->payload, "ready " + std::to_string(message->from));
    received.insert(message->payload);
  }
  EXPECT_EQ(received.size(), 2u);

  // Coordinator -> each worker, with a binary payload to prove framing
  // carries arbitrary bytes.
  const std::string binary("task\x00\xFF!", 7);
  for (auto& worker : workers) {
    ASSERT_TRUE(coordinator->send(worker->rank(), binary));
    const auto message = worker->recv();
    ASSERT_TRUE(message.has_value());
    EXPECT_EQ(message->kind, Message::Kind::kData);
    EXPECT_EQ(message->from, 0u);
    EXPECT_EQ(message->payload, binary);
  }

  for (auto& worker : workers) worker->close();
  coordinator->close();
}

TEST(TcpTransport, GracefulCloseSurfacesAsPeerLeft) {
  TcpOptions options;
  options.heartbeat_interval = 100ms;
  TcpListener listener(0, options);
  std::unique_ptr<TcpTransport> worker;
  std::thread connector([&] {
    worker = TcpTransport::connect("127.0.0.1", listener.port(), options);
  });
  const auto coordinator = listener.accept_workers(1);
  connector.join();

  worker->close();
  const auto message = coordinator->recv();
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->kind, Message::Kind::kPeerLeft);
  EXPECT_EQ(message->from, 1u);
  EXPECT_FALSE(coordinator->send(1, "after departure"));
  coordinator->close();
}

TEST(TcpTransport, HeartbeatDeadlineDeclaresASilentPeerDead) {
  // The coordinator expects liveness within 400ms; the worker never
  // beacons (heartbeat disabled) and sends nothing, so the coordinator
  // must declare it dead — the detection path behind failed-worker
  // requeue.
  TcpOptions coordinator_options;
  coordinator_options.heartbeat_interval = 50ms;
  coordinator_options.peer_deadline = 400ms;
  TcpOptions silent_worker = coordinator_options;
  silent_worker.heartbeat_interval = 0ms;  // no beacons

  TcpListener listener(0, coordinator_options);
  std::unique_ptr<TcpTransport> worker;
  std::thread connector([&] {
    worker =
        TcpTransport::connect("127.0.0.1", listener.port(), silent_worker);
  });
  const auto coordinator = listener.accept_workers(1);
  connector.join();

  const auto start = std::chrono::steady_clock::now();
  const auto message = coordinator->recv();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->kind, Message::Kind::kPeerLeft);
  EXPECT_NE(message->payload.find("deadline"), std::string::npos)
      << message->payload;
  EXPECT_GE(elapsed, 300ms);  // not an instant disconnect — a deadline
  coordinator->close();
  worker->close();
}

TEST(TcpTransport, ConnectRetryExhaustionThrowsDescriptively) {
  // Learn a port that refuses connections by binding and immediately
  // releasing it.
  std::uint16_t dead_port = 0;
  {
    TcpListener probe(0);
    dead_port = probe.port();
  }
  TcpOptions options;
  options.connect_attempts = 2;
  options.connect_backoff_base = 10ms;
  try {
    (void)TcpTransport::connect("127.0.0.1", dead_port, options);
    FAIL() << "connect() to a dead port must throw, not hang";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("after 2 attempts"), std::string::npos) << what;
    EXPECT_NE(what.find("127.0.0.1"), std::string::npos) << what;
  }
}

/// A raw client that completes the handshake, then turns hostile.
int raw_handshaken_client(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof address),
            0);
  const std::string hello = encode_frame(FrameType::kHello, "aedbmls-net 1");
  EXPECT_EQ(::send(fd, hello.data(), hello.size(), 0),
            static_cast<ssize_t>(hello.size()));
  char welcome[64];
  EXPECT_GT(::recv(fd, welcome, sizeof welcome, 0), 0);
  return fd;
}

TEST(TcpTransport, MalformedFrameDropsThePeer) {
  TcpListener listener(0);
  int fd = -1;
  std::thread attacker([&] {
    fd = raw_handshaken_client(listener.port());
    // An unknown frame type poisons the peer's decoder; the transport
    // must drop the connection, not crash or deliver garbage.
    const char garbage[] = "\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF";
    ::send(fd, garbage, sizeof garbage - 1, MSG_NOSIGNAL);
  });
  const auto coordinator = listener.accept_workers(1);
  attacker.join();
  const auto message = coordinator->recv();
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->kind, Message::Kind::kPeerLeft);
  EXPECT_NE(message->payload.find("frame"), std::string::npos)
      << message->payload;
  coordinator->close();
  ::close(fd);
}

TEST(TcpTransport, TruncatedFrameAtEofIsReported) {
  TcpListener listener(0);
  int fd = -1;
  std::thread truncator([&] {
    fd = raw_handshaken_client(listener.port());
    // A data header promising 100 bytes, then hang up mid-payload.
    std::string frame = encode_frame(FrameType::kData, std::string(100, 'x'));
    frame.resize(kFrameHeaderBytes + 10);
    ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
    ::shutdown(fd, SHUT_WR);
  });
  const auto coordinator = listener.accept_workers(1);
  truncator.join();
  const auto message = coordinator->recv();
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->kind, Message::Kind::kPeerLeft);
  EXPECT_NE(message->payload.find("truncated"), std::string::npos)
      << message->payload;
  coordinator->close();
  ::close(fd);
}

}  // namespace
}  // namespace aedbmls::par::net
