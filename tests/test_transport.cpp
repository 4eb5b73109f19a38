// Tests for the event-driven transport core: the epoll reactor, the fixed
// task pool, the keep-alive connection pool, and the pipelining mux channel.
//
// The reactor under test runs a tiny echo protocol: request type kEchoReq
// carries an 8-byte request id followed by arbitrary bytes; the handler
// replies kEchoRep with the identical payload (so the id demultiplexes),
// optionally sleeping first when the payload says so — enough to script
// out-of-order completions and deadline races without a full server.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <iterator>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/memgov.hpp"
#include "common/metrics.hpp"
#include "net/fault.hpp"
#include "net/pool.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "net/task_pool.hpp"
#include "net/transport.hpp"

#include "threads.hpp"

namespace ns::net {
namespace {

constexpr std::uint16_t kEchoReq = 41;
constexpr std::uint16_t kEchoRep = 42;

serial::Bytes make_payload(std::uint64_t request_id, double sleep_s = 0.0,
                           std::size_t extra = 0) {
  serial::Bytes payload(8 + 8 + extra);
  for (std::size_t i = 0; i < 8; ++i) {
    payload[i] = static_cast<std::uint8_t>(request_id >> (8 * i));
  }
  // Sleep request rides as milliseconds in the next 8 bytes.
  const auto ms = static_cast<std::uint64_t>(sleep_s * 1000.0);
  for (std::size_t i = 0; i < 8; ++i) {
    payload[8 + i] = static_cast<std::uint8_t>(ms >> (8 * i));
  }
  for (std::size_t i = 0; i < extra; ++i) {
    payload[16 + i] = static_cast<std::uint8_t>(request_id + i);
  }
  return payload;
}

std::uint64_t payload_id(const serial::Bytes& payload) {
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < 8 && i < payload.size(); ++i) {
    id |= static_cast<std::uint64_t>(payload[i]) << (8 * i);
  }
  return id;
}

double payload_sleep_s(const serial::Bytes& payload) {
  if (payload.size() < 16) return 0.0;
  std::uint64_t ms = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    ms |= static_cast<std::uint64_t>(payload[8 + i]) << (8 * i);
  }
  return static_cast<double>(ms) / 1000.0;
}

/// Poll until the reactor reports exactly `want` live connections (closes
/// land on the loop thread, asynchronously to the peer observing EOF).
bool eventually_conn_count(Reactor& reactor, std::size_t want, double timeout_s = 3.0) {
  const Deadline deadline(timeout_s);
  while (!deadline.expired()) {
    if (reactor.connection_count() == want) return true;
    sleep_seconds(0.005);
  }
  return reactor.connection_count() == want;
}

/// Reactor wrapper serving the echo protocol on an ephemeral port.
class EchoServer {
 public:
  explicit EchoServer(ReactorConfig config = {}) {
    auto listener = TcpListener::bind({"127.0.0.1", 0});
    EXPECT_TRUE(listener.ok());
    endpoint_ = listener.value().endpoint();
    auto status = reactor_.start(
        std::move(listener).value(),
        [this](const ReactorConnPtr& conn, Message&& msg) {
          if (msg.type != kEchoReq) return false;
          frames_.fetch_add(1);
          const double sleep_s = payload_sleep_s(msg.payload);
          if (sleep_s > 0.0) sleep_seconds(sleep_s);
          return conn->send(kEchoRep, msg.payload).ok();
        },
        config);
    EXPECT_TRUE(status.ok());
  }

  ~EchoServer() {
    reactor_.stop();
    ConnectionPool::instance().clear();
    FaultInjector::instance().disarm_all();
  }

  const Endpoint& endpoint() const { return endpoint_; }
  Reactor& reactor() { return reactor_; }
  std::uint64_t frames() const { return frames_.load(); }

 private:
  Endpoint endpoint_;
  Reactor reactor_;
  std::atomic<std::uint64_t> frames_{0};
};

// ---- reactor ----

TEST(ReactorTest, EchoRoundTrip) {
  EchoServer server;
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  const auto payload = make_payload(7, 0.0, 32);
  ASSERT_TRUE(send_message(conn.value(), kEchoReq, payload).ok());
  auto reply = recv_message(conn.value(), 5.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().type, kEchoRep);
  EXPECT_EQ(reply.value().payload, payload);
}

// Many frames glued into the stream before any reply is read: the reactor
// must decode them all (multiple frames per read buffer) and the handlers
// must reply on the shared connection without corrupting the framing.
TEST(ReactorTest, PipelinedFramesOnOneConnection) {
  EchoServer server;
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());

  constexpr int kFrames = 32;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(
        send_message(conn.value(), kEchoReq, make_payload(static_cast<std::uint64_t>(i + 1)))
            .ok());
  }
  // Replies may complete out of order (concurrent handlers); collect ids.
  std::vector<bool> seen(kFrames + 1, false);
  for (int i = 0; i < kFrames; ++i) {
    auto reply = recv_message(conn.value(), 5.0);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().type, kEchoRep);
    const std::uint64_t id = payload_id(reply.value().payload);
    ASSERT_GE(id, 1u);
    ASSERT_LE(id, static_cast<std::uint64_t>(kFrames));
    EXPECT_FALSE(seen[id]) << "duplicate reply for id " << id;
    seen[id] = true;
  }
  EXPECT_EQ(server.frames(), static_cast<std::uint64_t>(kFrames));
}

// A slow handler must not stall other connections (the reactor loop never
// blocks on a handler): a fast request on a second connection completes
// while the slow one is still sleeping.
TEST(ReactorTest, SlowHandlerDoesNotBlockOtherConnections) {
  EchoServer server;
  auto slow = TcpConnection::connect(server.endpoint());
  auto fast = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());

  ASSERT_TRUE(send_message(slow.value(), kEchoReq, make_payload(1, /*sleep_s=*/0.8)).ok());
  const Stopwatch watch;
  ASSERT_TRUE(send_message(fast.value(), kEchoReq, make_payload(2)).ok());
  auto reply = recv_message(fast.value(), 5.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_LT(watch.elapsed(), 0.5) << "fast request waited on the slow handler";
  auto slow_reply = recv_message(slow.value(), 5.0);
  ASSERT_TRUE(slow_reply.ok());
}

// The idle sweep closes keep-alive connections that go quiet; an active
// in-flight handler shields its connection from the sweep.
TEST(ReactorTest, IdleConnectionsAreSweptClosed) {
  ReactorConfig config;
  config.idle_timeout_s = 0.2;
  EchoServer server(config);
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  // Prove liveness first, then go idle.
  ASSERT_TRUE(send_message(conn.value(), kEchoReq, make_payload(1)).ok());
  ASSERT_TRUE(recv_message(conn.value(), 5.0).ok());

  // Sweep cadence is 1 s; within ~2 s the peer must have closed us.
  std::uint8_t byte = 0;
  auto status = conn.value().recv_all(&byte, 1, 2.5);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kConnectionClosed);
}

// stop_accepting() releases the port while established connections keep
// serving — the injected-crash semantics servers rely on.
TEST(ReactorTest, StopAcceptingReleasesPortButServesExisting) {
  EchoServer server;
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());

  server.reactor().stop_accepting();
  // The loop thread closes the listener on its next wakeup; new dials must
  // start failing (give the async close a moment, then a short dial budget).
  const Deadline deadline(2.0);
  bool refused = false;
  while (!deadline.expired()) {
    auto fresh = TcpConnection::connect_raw(server.endpoint(), 0.05);
    if (!fresh.ok()) {
      refused = true;
      break;
    }
    sleep_seconds(0.02);
  }
  EXPECT_TRUE(refused) << "listener still accepting after stop_accepting()";

  // The established connection still serves.
  ASSERT_TRUE(send_message(conn.value(), kEchoReq, make_payload(9)).ok());
  auto reply = recv_message(conn.value(), 5.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(payload_id(reply.value().payload), 9u);
}

// An inline-handler reactor (the agent's) runs every handler on its loop
// thread, so it starts no handler pool: one thread in all.
TEST(ReactorTest, InlineReactorAddsOnlyItsLoopThread) {
  // A sanitizer runtime may start a helper thread along with the first
  // thread the process creates; create one before counting.
  std::thread([] {}).join();
  const std::size_t before = settled_thread_count();
  ReactorConfig config;
  config.inline_handlers = true;
  EchoServer server(config);
  EXPECT_EQ(thread_count(), before + 1);
  EXPECT_FALSE(server.reactor().submit([] {})) << "an inline reactor accepted a pool task";

  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(send_message(conn.value(), kEchoReq, make_payload(3)).ok());
  auto reply = recv_message(conn.value(), 5.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(payload_id(reply.value().payload), 3u);
}

// ---- read-path fuzz: hostile bytes must close the peer, never the loop ----

// Pure noise on the wire: the reactor must fail header decode (bad magic),
// drop the connection, and keep serving other peers untouched.
TEST(ReactorTest, GarbageBytesCloseConnectionReactorSurvives) {
  EchoServer server;
  std::mt19937_64 rng(0xdecafbad);
  for (int round = 0; round < 8; ++round) {
    auto evil = TcpConnection::connect(server.endpoint());
    ASSERT_TRUE(evil.ok());
    serial::Bytes noise(1024 + rng() % 4096);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng());
    // The send may fail midway once the reactor slams the door; either way
    // the peer must observe a close, not a hang.
    (void)evil.value().send_all(noise.data(), noise.size());
    std::uint8_t byte = 0;
    {
    auto status = evil.value().recv_all(&byte, 1, 2.0);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, ErrorCode::kConnectionClosed);
  }
  }
  // A well-formed peer is unaffected.
  auto good = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(send_message(good.value(), kEchoReq, make_payload(11)).ok());
  auto reply = recv_message(good.value(), 5.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(payload_id(reply.value().payload), 11u);
}

// A syntactically valid header whose payload fails the CRC: the frame must
// be rejected at check_payload, the connection dropped, and a pipelined
// valid frame sitting behind the corrupt one must NOT be dispatched — a
// misframed stream cannot be trusted for anything that follows.
TEST(ReactorTest, CorruptPayloadDropsConnectionBeforeLaterFrames) {
  EchoServer server;
  auto evil = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(evil.ok());

  serial::Bytes corrupt = serial::build_frame(kEchoReq, make_payload(21));
  corrupt.back() ^= 0xff;  // payload no longer matches the header CRC
  const serial::Bytes valid = serial::build_frame(kEchoReq, make_payload(22));
  serial::Bytes wire = corrupt;
  wire.insert(wire.end(), valid.begin(), valid.end());
  (void)evil.value().send_all(wire.data(), wire.size());

  std::uint8_t byte = 0;
  {
    auto status = evil.value().recv_all(&byte, 1, 2.0);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, ErrorCode::kConnectionClosed);
  }
  // Give any (wrong) dispatch of frame 22 a beat to land, then assert the
  // reactor stopped at the corruption: neither frame ran the handler.
  sleep_seconds(0.1);
  EXPECT_EQ(server.frames(), 0u) << "frames after a CRC failure were dispatched";
}

// A truncated header followed by an abrupt close (the classic port-scanner
// footprint) must not wedge the loop or leak the connection slot.
TEST(ReactorTest, TruncatedHeaderThenCloseIsHarmless) {
  EchoServer server;
  for (int round = 0; round < 4; ++round) {
    auto evil = TcpConnection::connect(server.endpoint());
    ASSERT_TRUE(evil.ok());
    const serial::Bytes frame = serial::build_frame(kEchoReq, make_payload(31));
    ASSERT_TRUE(evil.value().send_all(frame.data(), serial::kHeaderSize / 2).ok());
    evil.value().close();
  }
  auto good = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(send_message(good.value(), kEchoReq, make_payload(32)).ok());
  auto reply = recv_message(good.value(), 5.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(payload_id(reply.value().payload), 32u);
  EXPECT_TRUE(eventually_conn_count(server.reactor(), 1));
}

// ---- large frames: buffered as they arrive, charged only for what arrived ----

constexpr std::size_t kLargeFrameBytes = 4u << 20;

/// Echo payload of exactly `size` bytes (size >= 16) with a non-repeating
/// body, so a misplaced byte anywhere shows up in the echoed copy.
serial::Bytes large_payload(std::uint64_t id, std::size_t size) {
  serial::Bytes payload = make_payload(id, 0.0, size - 16);
  for (std::size_t i = 16; i < size; ++i) {
    payload[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
  }
  return payload;
}

bool eventually_buffered(Reactor& reactor, std::size_t want, double timeout_s = 5.0) {
  const Deadline deadline(timeout_s);
  while (!deadline.expired()) {
    if (reactor.buffered_bytes() == want) return true;
    sleep_seconds(0.005);
  }
  return reactor.buffered_bytes() == want;
}

/// True once the peer has closed `conn` (EOF or reset on a 1-byte read).
bool closed_by_peer(TcpConnection& conn, double timeout_s = 5.0) {
  std::uint8_t byte = 0;
  auto status = conn.recv_all(&byte, 1, timeout_s);
  return !status.ok() && status.error().code == ErrorCode::kConnectionClosed;
}

// A 4 MiB frame whose header and first bytes arrive one byte at a time and
// whose body arrives in odd-sized pieces, straddling every read-chunk
// boundary, reassembles byte-exactly; afterwards nothing stays charged.
TEST(ReactorLargeFrameTest, DripFedFrameArrivesIntact) {
  EchoServer server;
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  const serial::Bytes payload = large_payload(51, kLargeFrameBytes);
  const serial::Bytes frame = serial::build_frame(kEchoReq, payload);

  std::size_t off = 0;
  for (; off < serial::kHeaderSize + 4096; ++off) {
    ASSERT_TRUE(conn.value().send_all(frame.data() + off, 1).ok()) << off;
    if (off % 512 == 0) sleep_seconds(0.0005);  // let the reactor see partial reads
  }
  const std::size_t kPieces[] = {1, 7, 4093, 65537, 65535, 3, 300001};
  for (std::size_t i = 0; off < frame.size(); ++i) {
    const std::size_t n = std::min(kPieces[i % std::size(kPieces)], frame.size() - off);
    ASSERT_TRUE(conn.value().send_all(frame.data() + off, n).ok()) << off;
    off += n;
    if (i % 5 == 0) sleep_seconds(0.0005);
  }

  auto reply = recv_message(conn.value(), 10.0);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(reply.value().type, kEchoRep);
  EXPECT_TRUE(reply.value().payload == payload) << "large payload changed in transit";
  EXPECT_EQ(server.frames(), 1u);
  EXPECT_TRUE(eventually_buffered(server.reactor(), 0));
}

// Small and large frames written back to back on one socket are dispatched
// in arrival order (inline handlers reply in dispatch order), including
// frames either side of one 64 KiB read chunk.
TEST(ReactorLargeFrameTest, FramesAroundALargeOneDispatchInOrder) {
  ReactorConfig config;
  config.inline_handlers = true;
  EchoServer server(config);
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());

  const std::vector<serial::Bytes> payloads = {
      make_payload(1),       large_payload(2, kLargeFrameBytes),
      make_payload(3),       large_payload(4, 64u << 10),
      large_payload(5, (64u << 10) - 1), make_payload(6)};
  serial::Bytes wire;
  for (const auto& payload : payloads) {
    const serial::Bytes frame = serial::build_frame(kEchoReq, payload);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  // A separate writer: the replies must be read while the request bytes
  // are still going out, or both socket buffers fill.
  std::thread writer([&] { EXPECT_TRUE(conn.value().send_all(wire.data(), wire.size()).ok()); });
  for (const auto& payload : payloads) {
    auto reply = recv_message(conn.value(), 10.0);
    if (!reply.ok()) {
      ADD_FAILURE() << reply.error().to_string();
      break;
    }
    EXPECT_EQ(payload_id(reply.value().payload), payload_id(payload));
    EXPECT_TRUE(reply.value().payload == payload) << payload_id(payload);
  }
  writer.join();
  EXPECT_EQ(server.frames(), payloads.size());
  EXPECT_TRUE(eventually_buffered(server.reactor(), 0));
}

// A large body that fails its CRC closes the connection and is never
// dispatched, nor is the valid frame behind it.
TEST(ReactorLargeFrameTest, CorruptLargeFrameClosesConnection) {
  EchoServer server;
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  serial::Bytes wire = serial::build_frame(kEchoReq, large_payload(61, kLargeFrameBytes));
  wire[serial::kHeaderSize + kLargeFrameBytes / 2] ^= 0x01;
  const serial::Bytes valid = serial::build_frame(kEchoReq, make_payload(62));
  wire.insert(wire.end(), valid.begin(), valid.end());
  (void)conn.value().send_all(wire.data(), wire.size());

  EXPECT_TRUE(closed_by_peer(conn.value()));
  sleep_seconds(0.1);
  EXPECT_EQ(server.frames(), 0u) << "a frame was dispatched after a CRC failure";
  EXPECT_TRUE(eventually_conn_count(server.reactor(), 0));
  EXPECT_TRUE(eventually_buffered(server.reactor(), 0));
}

// An allocation fault at the "net.reactor_read" site while a large frame's
// header arrives sheds only the connection that sent it.
TEST(ReactorLargeFrameTest, AllocFaultOnLargeHeaderShedsOnlyThatConnection) {
  EchoServer server;
  auto bystander = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(bystander.ok());
  ASSERT_TRUE(send_message(bystander.value(), kEchoReq, make_payload(70)).ok());
  ASSERT_TRUE(recv_message(bystander.value(), 5.0).ok());

  auto victim = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(eventually_conn_count(server.reactor(), 2));
  auto& injector = mem::AllocFaultInjector::instance();
  const std::uint64_t bad_alloc_before = metrics::counter("mem.bad_alloc_total").value();
  injector.arm(mem::AllocFaultPlan::single("net.reactor_read", 1.0, 1));
  const serial::Bytes frame = serial::build_frame(kEchoReq, large_payload(71, kLargeFrameBytes));
  (void)victim.value().send_all(frame.data(), serial::kHeaderSize + 1024);
  EXPECT_TRUE(closed_by_peer(victim.value()));
  EXPECT_EQ(injector.triggered_count(), 1u);
  injector.disarm_all();
  EXPECT_EQ(metrics::counter("mem.bad_alloc_total").value(), bad_alloc_before + 1);

  // The bystander's connection survived and still round-trips.
  ASSERT_TRUE(send_message(bystander.value(), kEchoReq, make_payload(72)).ok());
  auto reply = recv_message(bystander.value(), 5.0);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(payload_id(reply.value().payload), 72u);
  EXPECT_TRUE(eventually_conn_count(server.reactor(), 1));
  EXPECT_TRUE(eventually_buffered(server.reactor(), 0));
  EXPECT_EQ(server.frames(), 2u);
}

// A large frame that stalls mid-body dies by the progress deadline, however
// steadily it drips: body progress does not refresh the clock.
TEST(ReactorLargeFrameTest, StalledLargeFrameHitsProgressDeadline) {
  ReactorConfig config;
  config.guard.frame_progress_timeout_s = 0.3;
  EchoServer server(config);
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  const std::uint64_t kills_before = metrics::counter("net.guard.progress_kill_total").value();
  const serial::Bytes frame =
      serial::build_frame(kEchoReq, large_payload(80, kLargeFrameBytes));
  ASSERT_TRUE(conn.value().send_all(frame.data(), serial::kHeaderSize + (200u << 10)).ok());

  std::size_t off = serial::kHeaderSize + (200u << 10);
  const Stopwatch watch;
  bool killed = false;
  while (watch.elapsed() < 5.0) {
    if (!conn.value().send_all(frame.data() + off, 1).ok()) {
      killed = true;
      break;
    }
    ++off;
    if (conn.value().wait_readable(0.05).ok()) {
      killed = closed_by_peer(conn.value(), 0.5);
      break;
    }
  }
  EXPECT_TRUE(killed) << "a dripping large frame outlived the progress deadline";
  EXPECT_GT(metrics::counter("net.guard.progress_kill_total").value(), kills_before);
  EXPECT_EQ(server.frames(), 0u);
  EXPECT_TRUE(eventually_conn_count(server.reactor(), 0));
  EXPECT_TRUE(eventually_buffered(server.reactor(), 0));
}

// Bytes of a large frame are charged to the buffer budget as they arrive
// and all released when the peer closes mid-frame.
TEST(ReactorLargeFrameTest, PartialLargeFrameIsChargedThenReleasedOnClose) {
  EchoServer server;
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  const serial::Bytes frame =
      serial::build_frame(kEchoReq, large_payload(90, kLargeFrameBytes));
  const std::size_t sent = serial::kHeaderSize + (1u << 20) + 3;
  ASSERT_TRUE(conn.value().send_all(frame.data(), sent).ok());
  EXPECT_TRUE(eventually_buffered(server.reactor(), sent))
      << "buffered " << server.reactor().buffered_bytes() << " of " << sent;
  conn.value().close();
  EXPECT_TRUE(eventually_conn_count(server.reactor(), 0));
  EXPECT_TRUE(eventually_buffered(server.reactor(), 0));
  EXPECT_EQ(server.frames(), 0u);
}

/// Resident set size of this process, from /proc/self/statm.
std::size_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size_pages = 0;
  unsigned long resident_pages = 0;
  const int got = std::fscanf(f, "%lu %lu", &size_pages, &resident_pages);
  std::fclose(f);
  return got == 2 ? resident_pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)) : 0;
}

// Headers that each claim a large (within-cap) payload cost only the bytes
// that actually arrived: those are what the budgets see, and nothing is
// allocated for the claim. The global budget then sheds the connection
// whose buffered body pushes the total over the ceiling, and no other.
TEST(ReactorLargeFrameTest, LargeClaimsHoldOnlyWhatArrivedAndGlobalBudgetSheds) {
  constexpr std::size_t kClaim = 64u << 20;    // per header; under the 1 GiB cap
  constexpr std::size_t kSent = 256u << 10;    // body bytes each peer sends
  constexpr std::size_t kConns = 4;
  ReactorConfig config;
  config.guard.max_total_buffer_bytes = 2u << 20;
  EchoServer server(config);
  const std::uint64_t sheds_before = metrics::counter("net.guard.global_overflow_total").value();

  const serial::Bytes body = large_payload(95, 2u << 20);
  std::uint8_t header[serial::kHeaderSize];
  serial::encode_header({.type = kEchoReq, .length = static_cast<std::uint32_t>(kClaim)}, header);

  const std::size_t rss_before = resident_bytes();
  std::vector<TcpConnection> conns;
  for (std::size_t i = 0; i < kConns; ++i) {
    auto conn = TcpConnection::connect(server.endpoint());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.value().send_all(header, sizeof header).ok());
    ASSERT_TRUE(conn.value().send_all(body.data(), kSent).ok());
    conns.push_back(std::move(conn).value());
  }
  const std::size_t held = serial::kHeaderSize + kSent;
  ASSERT_TRUE(eventually_buffered(server.reactor(), kConns * held))
      << "buffered " << server.reactor().buffered_bytes() << " of " << kConns * held;
  EXPECT_LT(resident_bytes(), rss_before + (32u << 20))
      << "claims of " << kConns << " x " << (kClaim >> 20) << " MiB were allocated up front";

  // One peer sends 1.5 MiB more of its body: the total passes the 2 MiB
  // ceiling, and that peer, now the largest, is the one shed.
  TcpConnection& hog = conns.front();
  const std::uint8_t* more = body.data() + kSent;
  ASSERT_TRUE(hog.send_all(more, 3u << 19).ok());
  bool shed = false;
  for (std::size_t i = 0; i < 200 && !shed; ++i) {
    // The budget is checked when the next bytes arrive.
    if (!hog.send_all(more + (3u << 19) + i, 1).ok()) break;
    shed = hog.wait_readable(0.02).ok();
  }
  EXPECT_TRUE(closed_by_peer(hog));
  EXPECT_GT(metrics::counter("net.guard.global_overflow_total").value(), sheds_before);
  EXPECT_TRUE(eventually_conn_count(server.reactor(), kConns - 1));
  EXPECT_TRUE(eventually_buffered(server.reactor(), (kConns - 1) * held));

  for (auto& conn : conns) conn.close();
  EXPECT_TRUE(eventually_conn_count(server.reactor(), 0));
  EXPECT_TRUE(eventually_buffered(server.reactor(), 0));
  EXPECT_EQ(server.frames(), 0u);
}

// ---- direct receive: the threshold, pipelining, CRC and allocation faults ----

/// Send `frame`'s header split across two writes, the second carrying the
/// first `body_first` body bytes too. The second write waits until the
/// reactor has taken in the first, so the header reaches it in two reads.
void send_split_header(TcpConnection& conn, Reactor& reactor, const serial::Bytes& frame,
                       std::size_t body_first) {
  constexpr std::size_t kFirst = 7;
  ASSERT_TRUE(conn.send_all(frame.data(), kFirst).ok());
  ASSERT_TRUE(eventually_buffered(reactor, kFirst));
  ASSERT_TRUE(
      conn.send_all(frame.data() + kFirst, serial::kHeaderSize - kFirst + body_first).ok());
}

// Frames one byte under, exactly at and one byte over the direct threshold,
// each with its header split across two reads. On either path a frame is
// charged only for what has arrived; every frame echoes intact and leaves
// nothing charged.
TEST(ReactorDirectFrameTest, ThresholdSizesWithSplitHeader) {
  EchoServer server;
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  constexpr std::size_t kBodyFirst = 1000;
  std::uint64_t id = 300;
  for (const std::size_t size :
       {kDirectFrameBytes - 1, kDirectFrameBytes, kDirectFrameBytes + 1}) {
    const serial::Bytes payload = large_payload(++id, size);
    const serial::Bytes frame = serial::build_frame(kEchoReq, payload);
    send_split_header(conn.value(), server.reactor(), frame, kBodyFirst);
    const std::size_t charged = serial::kHeaderSize + kBodyFirst;
    EXPECT_TRUE(eventually_buffered(server.reactor(), charged))
        << size << ": buffered " << server.reactor().buffered_bytes() << ", want " << charged;
    const std::size_t sent = serial::kHeaderSize + kBodyFirst;
    ASSERT_TRUE(conn.value().send_all(frame.data() + sent, frame.size() - sent).ok());
    auto reply = recv_message(conn.value(), 10.0);
    ASSERT_TRUE(reply.ok()) << size << ": " << reply.error().to_string();
    EXPECT_TRUE(reply.value().payload == payload) << "payload of " << size << " B changed";
    EXPECT_TRUE(eventually_buffered(server.reactor(), 0)) << size;
  }
  EXPECT_EQ(server.frames(), 3u);
}

// A small frame written in the same send right behind a direct frame is
// read after the direct body completes and dispatched after it, in order.
TEST(ReactorDirectFrameTest, SmallFramePipelinedBehindDirectFrame) {
  ReactorConfig config;
  config.inline_handlers = true;
  EchoServer server(config);
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  const serial::Bytes large = large_payload(401, kLargeFrameBytes);
  const serial::Bytes small = make_payload(402);
  serial::Bytes wire = serial::build_frame(kEchoReq, large);
  const serial::Bytes tail = serial::build_frame(kEchoReq, small);
  wire.insert(wire.end(), tail.begin(), tail.end());
  // The header goes first and alone, so the large body takes the direct
  // path; the rest of the body and the small frame then leave together.
  ASSERT_TRUE(conn.value().send_all(wire.data(), serial::kHeaderSize).ok());
  ASSERT_TRUE(eventually_buffered(server.reactor(), serial::kHeaderSize));
  std::thread writer([&] {
    EXPECT_TRUE(conn.value()
                    .send_all(wire.data() + serial::kHeaderSize, wire.size() - serial::kHeaderSize)
                    .ok());
  });
  for (const serial::Bytes* want : {&large, &small}) {
    auto reply = recv_message(conn.value(), 10.0);
    if (!reply.ok()) {
      ADD_FAILURE() << reply.error().to_string();
      break;
    }
    EXPECT_EQ(payload_id(reply.value().payload), payload_id(*want));
    EXPECT_TRUE(reply.value().payload == *want) << payload_id(*want);
  }
  writer.join();
  EXPECT_EQ(server.frames(), 2u);
  EXPECT_TRUE(eventually_buffered(server.reactor(), 0));
}

// A direct frame whose body fails the CRC folded in as it arrived closes
// the connection; neither it nor the valid frame behind it is dispatched,
// and its charge is released.
TEST(ReactorDirectFrameTest, CorruptDirectFrameClosesWithoutDispatch) {
  EchoServer server;
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  serial::Bytes wire = serial::build_frame(kEchoReq, large_payload(411, kLargeFrameBytes));
  wire[wire.size() - 1] ^= 0x80;  // the last byte: only the full CRC can see it
  const serial::Bytes valid = serial::build_frame(kEchoReq, make_payload(412));
  wire.insert(wire.end(), valid.begin(), valid.end());
  ASSERT_TRUE(conn.value().send_all(wire.data(), serial::kHeaderSize).ok());
  ASSERT_TRUE(eventually_buffered(server.reactor(), serial::kHeaderSize));
  (void)conn.value().send_all(wire.data() + serial::kHeaderSize,
                              wire.size() - serial::kHeaderSize);

  EXPECT_TRUE(closed_by_peer(conn.value()));
  sleep_seconds(0.1);
  EXPECT_EQ(server.frames(), 0u) << "a frame was dispatched after a CRC failure";
  EXPECT_TRUE(eventually_conn_count(server.reactor(), 0));
  EXPECT_TRUE(eventually_buffered(server.reactor(), 0));
}

// An allocation fault at "net.reactor_read" on the direct payload itself
// (the victim's read buffer already exists, so nothing else allocates)
// sheds only that connection and releases what it had charged.
TEST(ReactorDirectFrameTest, AllocFaultOnDirectPayloadShedsOnlyThatConnection) {
  EchoServer server;
  auto bystander = TcpConnection::connect(server.endpoint());
  auto victim = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(bystander.ok());
  ASSERT_TRUE(victim.ok());
  for (auto* conn : {&bystander.value(), &victim.value()}) {
    ASSERT_TRUE(send_message(*conn, kEchoReq, make_payload(420)).ok());
    ASSERT_TRUE(recv_message(*conn, 5.0).ok());
  }
  ASSERT_TRUE(eventually_buffered(server.reactor(), 0));

  auto& injector = mem::AllocFaultInjector::instance();
  const std::uint64_t bad_alloc_before = metrics::counter("mem.bad_alloc_total").value();
  injector.arm(mem::AllocFaultPlan::single("net.reactor_read", 1.0, 1));
  const serial::Bytes frame = serial::build_frame(kEchoReq, large_payload(421, kLargeFrameBytes));
  (void)victim.value().send_all(frame.data(), serial::kHeaderSize + 1024);
  EXPECT_TRUE(closed_by_peer(victim.value()));
  EXPECT_EQ(injector.triggered_count(), 1u);
  injector.disarm_all();
  EXPECT_EQ(metrics::counter("mem.bad_alloc_total").value(), bad_alloc_before + 1);

  ASSERT_TRUE(send_message(bystander.value(), kEchoReq, make_payload(422)).ok());
  auto reply = recv_message(bystander.value(), 5.0);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(payload_id(reply.value().payload), 422u);
  EXPECT_TRUE(eventually_conn_count(server.reactor(), 1));
  EXPECT_TRUE(eventually_buffered(server.reactor(), 0));
  EXPECT_EQ(server.frames(), 3u);
}

// ---- scatter-gather sends ----

// Both send paths write the frame header and the payload as separate
// buffers. These sizes cover an empty body, bodies shorter than the header
// and shorter than the echo protocol's id, one byte past a pacing chunk, and
// a body far larger than the socket buffers (many partial writes).
const std::size_t kScatterSizes[] = {0, 1, 15, (64u << 10) + 1, 5u << 20};

/// Echo payload of exactly `size` bytes; sizes under 16 carry no sleep.
serial::Bytes sized_payload(std::uint64_t id, std::size_t size) {
  if (size >= 16) return make_payload(id, 0.0, size - 16);
  serial::Bytes payload(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = i < 8 ? static_cast<std::uint8_t>(id >> (8 * i))
                       : static_cast<std::uint8_t>(0xa5 ^ i);
  }
  return payload;
}

// send_message -> reactor, and ReactorConn::send -> recv_message.
TEST(ScatterSendTest, SendMessageToReactorRoundTripsEverySize) {
  EchoServer server;
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  std::uint64_t id = 100;
  for (const std::size_t size : kScatterSizes) {
    const auto payload = sized_payload(++id, size);
    ASSERT_TRUE(send_message(conn.value(), kEchoReq, payload).ok()) << size;
    auto reply = recv_message(conn.value(), 10.0);
    ASSERT_TRUE(reply.ok()) << size << ": " << reply.error().to_string();
    EXPECT_EQ(reply.value().type, kEchoRep);
    EXPECT_TRUE(reply.value().payload == payload) << "payload of " << size << " B changed";
  }
  EXPECT_EQ(server.frames(), std::size(kScatterSizes));
}

// ReactorConn::send -> MuxChannel reader (which reads bodies in 64 KiB
// pieces); payloads under 8 bytes demux as request id 0.
TEST(ScatterSendTest, ReactorSendToMuxChannelRoundTripsEverySize) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();
  auto channel = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(channel.ok());
  std::uint64_t id = 200;
  for (const std::size_t size : kScatterSizes) {
    const auto payload = sized_payload(++id, size);
    const std::uint64_t demux_id = size >= 8 ? id : 0;
    auto reply = channel.value()->call(kEchoReq, payload, kEchoRep, demux_id, 10.0);
    ASSERT_TRUE(reply.ok()) << size << ": " << reply.error().to_string();
    EXPECT_TRUE(reply.value().payload == payload) << "payload of " << size << " B changed";
  }
  EXPECT_TRUE(channel.value()->healthy());
}

FaultPlan corrupt_only(std::uint16_t type) {
  FaultPlan plan;
  plan.rules.push_back(FaultRule{FaultMode::kCorrupt, 1.0, -1, {type}});
  return plan;
}

// An armed kCorrupt plan still damages what send_message writes (the fault
// path keeps the assembled frame), and the receiver sees the retryable
// kCorruptFrame; once disarmed the scatter path delivers intact frames.
TEST(ScatterSendTest, ArmedCorruptOnSendMessageSurfacesCorruptFrame) {
  auto listener = TcpListener::bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  const Endpoint ep = listener.value().endpoint();
  FaultInjector::instance().arm(ep, corrupt_only(kEchoReq));
  const auto payload = sized_payload(7, (64u << 10) + 1);

  std::thread sender([ep, &payload] {
    auto conn = TcpConnection::connect(ep);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(send_message(conn.value(), kEchoReq, payload).ok());
    FaultInjector::instance().disarm_all();
    ASSERT_TRUE(send_message(conn.value(), kEchoReq, payload).ok());
  });
  auto conn = listener.value().accept(2.0);
  ASSERT_TRUE(conn.ok());
  auto damaged = recv_message(conn.value(), 5.0);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.error().code, ErrorCode::kCorruptFrame);
  EXPECT_TRUE(is_retryable(damaged.error().code));
  auto intact = recv_message(conn.value(), 5.0);
  sender.join();
  ASSERT_TRUE(intact.ok()) << intact.error().to_string();
  EXPECT_TRUE(intact.value().payload == payload);
  FaultInjector::instance().disarm_all();
}

// The same for ReactorConn::send: a corrupted reply fails the caller's
// read with the retryable kCorruptFrame.
TEST(ScatterSendTest, ArmedCorruptOnReactorSendSurfacesCorruptFrame) {
  EchoServer server;
  FaultInjector::instance().arm(server.endpoint(), corrupt_only(kEchoRep));
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(send_message(conn.value(), kEchoReq, sized_payload(8, (64u << 10) + 1)).ok());
  auto reply = recv_message(conn.value(), 5.0);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kCorruptFrame);
  EXPECT_TRUE(is_retryable(reply.error().code));
}

// A shaped send of header + payload is one paced transfer: it takes at
// least the link's predicted time for the whole frame, and arrives intact.
TEST(ScatterSendTest, ShapedLanSendTakesBandwidthPlusLatency) {
  auto listener = TcpListener::bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  const LinkShape lan = LinkShape::lan();
  const auto payload = sized_payload(9, 256u << 10);
  const double predicted = lan.predict_seconds(serial::kHeaderSize + payload.size());

  double send_s = 0.0;
  std::thread sender([ep = listener.value().endpoint(), &payload, &lan, &send_s] {
    auto conn = TcpConnection::connect(ep);
    ASSERT_TRUE(conn.ok());
    const Stopwatch watch;
    ASSERT_TRUE(send_message(conn.value(), kEchoReq, payload, lan).ok());
    send_s = watch.elapsed();
  });
  auto conn = listener.value().accept(2.0);
  ASSERT_TRUE(conn.ok());
  auto got = recv_message(conn.value(), 10.0);
  sender.join();
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  EXPECT_TRUE(got.value().payload == payload);
  EXPECT_GE(send_s, predicted) << "shaped send finished faster than the link allows";
  EXPECT_LE(send_s, predicted * 3.0) << "shaped send paced far too slowly";
}

// ---- gathered (borrowed) payloads ----

/// A payload of exactly `size` bytes whose bulk travels borrowed from
/// `arrays`, which must outlive every send of it: the echo id and a zero
/// sleep, an f64 array, one inline byte, an i32 array, then up to three
/// tail bytes. Sizes too small for two borrowed arrays stay inline.
struct Gathered {
  std::shared_ptr<std::pair<std::vector<double>, std::vector<std::int32_t>>> arrays;
  serial::Payload payload;
};

Gathered gathered_payload(std::uint64_t id, std::size_t size) {
  Gathered g;
  constexpr std::size_t kFixed = 16 + 4 + 1 + 4;
  if (size < kFixed + 2 * serial::kBorrowMinBytes) {
    g.payload = sized_payload(id, size);
    return g;
  }
  const std::size_t bulk = size - kFixed;
  const std::size_t doubles = bulk / 2 / sizeof(double);
  const std::size_t ints = (bulk - doubles * sizeof(double)) / sizeof(std::int32_t);
  const std::size_t tail = bulk - doubles * sizeof(double) - ints * sizeof(std::int32_t);
  g.arrays = std::make_shared<std::pair<std::vector<double>, std::vector<std::int32_t>>>();
  for (std::size_t i = 0; i < doubles; ++i) {
    g.arrays->first.push_back(static_cast<double>(id) + 0.5 * static_cast<double>(i));
  }
  for (std::size_t i = 0; i < ints; ++i) {
    g.arrays->second.push_back(static_cast<std::int32_t>(id * 131 + i));
  }
  auto enc = serial::Encoder::gathering();
  enc.put_u64(id);
  enc.put_u64(0);  // no sleep
  enc.put_f64_array(g.arrays->first);
  enc.put_u8(0x3c);
  enc.put_i32_array(g.arrays->second);
  for (std::size_t i = 0; i < tail; ++i) enc.put_u8(static_cast<std::uint8_t>(0xe0 + i));
  g.payload = enc.take_payload(g.arrays);
  EXPECT_EQ(g.payload.size(), size);
  std::size_t pieces = 0;
  g.payload.for_each_piece([&pieces](const std::uint8_t*, std::size_t) { ++pieces; });
  EXPECT_GE(pieces, 4u) << "the arrays of a " << size << " B payload were not borrowed";
  return g;
}

/// Request for GatherServer: an echo id, no sleep, and the reply size.
serial::Bytes gather_request(std::uint64_t id, std::size_t reply_size) {
  serial::Bytes payload = make_payload(id, 0.0, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    payload[16 + i] = static_cast<std::uint8_t>(reply_size >> (8 * i));
  }
  return payload;
}

/// Reactor that answers each kEchoReq with gathered_payload(id, size),
/// sent with `shape`. The handler drops its own reference to the borrowed
/// arrays as soon as send() returns, so whatever of the reply is still
/// queued lives on the payload's owner alone; `last_arrays()` watches it.
class GatherServer {
 public:
  explicit GatherServer(LinkShape shape = LinkShape::unshaped()) {
    auto listener = TcpListener::bind({"127.0.0.1", 0});
    EXPECT_TRUE(listener.ok());
    endpoint_ = listener.value().endpoint();
    auto status = reactor_.start(
        std::move(listener).value(),
        [this, shape](const ReactorConnPtr& conn, Message&& msg) {
          if (msg.type != kEchoReq || msg.payload.size() != 24) return false;
          std::uint64_t size = 0;
          for (std::size_t i = 0; i < 8; ++i) {
            size |= static_cast<std::uint64_t>(msg.payload[16 + i]) << (8 * i);
          }
          Status sent = ok_status();
          {
            Gathered reply = gathered_payload(payload_id(msg.payload), size);
            {
              std::lock_guard lock(mu_);
              last_arrays_ = reply.arrays;
            }
            sent = conn->send(kEchoRep, std::move(reply.payload), shape);
          }
          replies_.fetch_add(1);
          return sent.ok();
        },
        ReactorConfig{});
    EXPECT_TRUE(status.ok());
  }

  ~GatherServer() {
    reactor_.stop();
    ConnectionPool::instance().clear();
    FaultInjector::instance().disarm_all();
  }

  const Endpoint& endpoint() const { return endpoint_; }
  Reactor& reactor() { return reactor_; }
  /// Replies whose handler has returned (and dropped its arrays).
  std::uint64_t replies() const { return replies_.load(); }
  bool last_arrays_alive() {
    std::lock_guard lock(mu_);
    return !last_arrays_.expired();
  }

 private:
  Endpoint endpoint_;
  Reactor reactor_;
  std::mutex mu_;
  std::weak_ptr<const void> last_arrays_;
  std::atomic<std::uint64_t> replies_{0};
};

// send_message writes a borrowed payload straight from its arrays: every
// size arrives at the reactor, and echoes back, as the flattened bytes.
TEST(ScatterSendTest, GatheredSendMessageRoundTripsEverySize) {
  EchoServer server;
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  std::uint64_t id = 300;
  for (const std::size_t size : kScatterSizes) {
    const Gathered g = gathered_payload(++id, size);
    ASSERT_TRUE(send_message(conn.value(), kEchoReq, g.payload).ok()) << size;
    auto reply = recv_message(conn.value(), 10.0);
    ASSERT_TRUE(reply.ok()) << size << ": " << reply.error().to_string();
    EXPECT_TRUE(reply.value().payload == g.payload.flatten()) << "payload of " << size << " B";
  }
}

// ReactorConn::send queues a borrowed reply's pieces as they are; both
// receive paths (recv_message and the mux reader) get the flattened bytes.
TEST(ScatterSendTest, GatheredReactorSendRoundTripsEverySize) {
  GatherServer server;
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  auto& pool = ConnectionPool::instance();
  pool.clear();
  auto channel = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(channel.ok());
  std::uint64_t id = 400;
  for (const std::size_t size : kScatterSizes) {
    if (size < 8) continue;  // the reply must carry its id to demux
    ++id;
    const serial::Bytes expected = gathered_payload(id, size).payload.flatten();
    ASSERT_TRUE(send_message(conn.value(), kEchoReq, gather_request(id, size)).ok());
    auto reply = recv_message(conn.value(), 10.0);
    ASSERT_TRUE(reply.ok()) << size << ": " << reply.error().to_string();
    EXPECT_TRUE(reply.value().payload == expected) << "payload of " << size << " B";

    auto muxed = channel.value()->call(kEchoReq, gather_request(id, size), kEchoRep, id, 10.0);
    ASSERT_TRUE(muxed.ok()) << size << ": " << muxed.error().to_string();
    EXPECT_TRUE(muxed.value().payload == expected) << "muxed payload of " << size << " B";
  }
  EXPECT_TRUE(channel.value()->healthy());
}

// The armed-corrupt path flattens a borrowed payload before damaging it:
// the receiver sees kCorruptFrame, then the intact frame once disarmed.
TEST(ScatterSendTest, ArmedCorruptOnGatheredSendMessageSurfacesCorruptFrame) {
  auto listener = TcpListener::bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  const Endpoint ep = listener.value().endpoint();
  FaultInjector::instance().arm(ep, corrupt_only(kEchoReq));
  const Gathered g = gathered_payload(17, (64u << 10) + 1);

  std::thread sender([ep, &g] {
    auto conn = TcpConnection::connect(ep);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(send_message(conn.value(), kEchoReq, g.payload).ok());
    FaultInjector::instance().disarm_all();
    ASSERT_TRUE(send_message(conn.value(), kEchoReq, g.payload).ok());
  });
  auto conn = listener.value().accept(2.0);
  ASSERT_TRUE(conn.ok());
  auto damaged = recv_message(conn.value(), 5.0);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.error().code, ErrorCode::kCorruptFrame);
  auto intact = recv_message(conn.value(), 5.0);
  sender.join();
  ASSERT_TRUE(intact.ok()) << intact.error().to_string();
  EXPECT_TRUE(intact.value().payload == g.payload.flatten());
  FaultInjector::instance().disarm_all();
}

// The same for a borrowed reactor reply.
TEST(ScatterSendTest, ArmedCorruptOnGatheredReactorSendSurfacesCorruptFrame) {
  GatherServer server;
  FaultInjector::instance().arm(server.endpoint(), corrupt_only(kEchoRep));
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(send_message(conn.value(), kEchoReq, gather_request(18, (64u << 10) + 1)).ok());
  auto reply = recv_message(conn.value(), 5.0);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kCorruptFrame);
}

// Shaped sends flatten a borrowed payload and pace the copy: the transfer
// takes at least the link's predicted time and arrives intact, from
// send_message and from a paced reactor reply alike.
TEST(ScatterSendTest, ShapedGatheredSendsArriveIntact) {
  const LinkShape lan = LinkShape::lan();
  const std::size_t size = 256u << 10;
  const double predicted = lan.predict_seconds(serial::kHeaderSize + size);
  {
    auto listener = TcpListener::bind({"127.0.0.1", 0});
    ASSERT_TRUE(listener.ok());
    const Gathered g = gathered_payload(19, size);
    double send_s = 0.0;
    std::thread sender([ep = listener.value().endpoint(), &g, &lan, &send_s] {
      auto conn = TcpConnection::connect(ep);
      ASSERT_TRUE(conn.ok());
      const Stopwatch watch;
      ASSERT_TRUE(send_message(conn.value(), kEchoReq, g.payload, lan).ok());
      send_s = watch.elapsed();
    });
    auto conn = listener.value().accept(2.0);
    ASSERT_TRUE(conn.ok());
    auto got = recv_message(conn.value(), 10.0);
    sender.join();
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    EXPECT_TRUE(got.value().payload == g.payload.flatten());
    EXPECT_GE(send_s, predicted) << "shaped send finished faster than the link allows";
  }
  GatherServer server(lan);
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  const Stopwatch watch;
  ASSERT_TRUE(send_message(conn.value(), kEchoReq, gather_request(20, size)).ok());
  auto reply = recv_message(conn.value(), 10.0);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_TRUE(reply.value().payload == gathered_payload(20, size).payload.flatten());
  EXPECT_GE(watch.elapsed(), predicted) << "paced reply arrived faster than the link allows";
}

// A reply bigger than the socket buffers is still partly queued when the
// handler returns and drops its own reference to the borrowed arrays (on
// the server, the stored result can be evicted the same way). The queued
// chunks keep the payload's owner alive until the last byte is written, so
// the reply arrives intact; the ASan lane runs this.
TEST(ScatterSendTest, QueuedGatheredReplyOutlivesItsSender) {
  GatherServer server;
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  const std::size_t size = 16u << 20;
  ASSERT_TRUE(send_message(conn.value(), kEchoReq, gather_request(21, size)).ok());
  // Read nothing until the handler has returned with the socket backed up.
  const Deadline handled(5.0);
  while (server.replies() == 0 && !handled.expired()) sleep_seconds(0.005);
  ASSERT_EQ(server.replies(), 1u);
  ASSERT_GT(server.reactor().buffered_bytes(), 0u) << "no part of the reply was queued";
  EXPECT_TRUE(server.last_arrays_alive()) << "the queued reply lost its owner";
  auto reply = recv_message(conn.value(), 10.0, size);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_TRUE(reply.value().payload == gathered_payload(21, size).payload.flatten());
  EXPECT_TRUE(eventually_buffered(server.reactor(), 0));
  const Deadline released(3.0);
  while (server.last_arrays_alive() && !released.expired()) sleep_seconds(0.005);
  EXPECT_FALSE(server.last_arrays_alive()) << "the written reply still holds its owner";
}

// ---- task pool ----

// A fixed pool never grows: with every thread blocked, the next task waits
// in the FIFO and runs once a thread frees. stop() drops what is still
// pending and joins the tasks already running.
TEST(TaskPoolTest, FixedPoolQueuesExcessTasksAndStopJoins) {
  TaskPool pool;
  pool.start(/*threads=*/2);
  EXPECT_EQ(pool.thread_count(), 2u);

  std::mutex mu;
  std::condition_variable cv;
  int running = 0;
  int finished = 0;
  int permits = 0;
  const auto blocking = [&] {
    std::unique_lock<std::mutex> lock(mu);
    ++running;
    cv.notify_all();
    cv.wait(lock, [&] { return permits > 0; });
    --permits;
    --running;
    ++finished;
    cv.notify_all();
  };
  const auto release = [&](int n) {
    {
      std::lock_guard<std::mutex> lock(mu);
      permits += n;
    }
    cv.notify_all();
  };
  const auto await = [&](auto pred) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(5), pred);
  };
  const auto eventually_set = [](const std::atomic<bool>& flag) {
    const Deadline deadline(5.0);
    while (!flag.load() && !deadline.expired()) sleep_seconds(0.005);
    return flag.load();
  };

  ASSERT_TRUE(pool.submit(blocking));
  ASSERT_TRUE(pool.submit(blocking));
  ASSERT_TRUE(await([&] { return running == 2; }));
  std::atomic<bool> third_ran{false};
  ASSERT_TRUE(pool.submit([&] { third_ran = true; }));
  sleep_seconds(0.1);
  EXPECT_FALSE(third_ran.load()) << "a third task ran while both threads were blocked";
  EXPECT_EQ(pool.thread_count(), 2u) << "the pool grew";

  release(1);
  EXPECT_TRUE(eventually_set(third_ran)) << "the queued task did not run once a thread freed";

  // Both threads blocked again and one task pending: stop() drops the
  // pending task, and returns only once the running ones have finished.
  ASSERT_TRUE(pool.submit(blocking));
  ASSERT_TRUE(await([&] { return running == 2; }));
  std::atomic<bool> pending_ran{false};
  ASSERT_TRUE(pool.submit([&] { pending_ran = true; }));
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    pool.stop();
    stopped = true;
  });
  // stop() takes the threads and clears the FIFO in one step.
  const Deadline begun(5.0);
  while (pool.thread_count() != 0 && !begun.expired()) sleep_seconds(0.005);
  EXPECT_FALSE(pool.submit([] {})) << "submit accepted after stop() began";
  sleep_seconds(0.05);
  EXPECT_FALSE(stopped.load()) << "stop() returned while tasks were still running";
  release(2);
  stopper.join();
  EXPECT_FALSE(pending_ran.load()) << "stop() ran a pending task";
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(finished, 3);
}

// ---- connection pool (leases) ----

TEST(PoolTest, LeaseReusesReleasedConnection) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();

  auto first = pool.lease(server.endpoint(), 2.0);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().reused());
  ASSERT_TRUE(send_message(first.value().conn(), kEchoReq, make_payload(1)).ok());
  ASSERT_TRUE(recv_message(first.value().conn(), 5.0).ok());
  first.value().release();
  EXPECT_EQ(pool.idle_count(), 1u);

  auto second = pool.lease(server.endpoint(), 2.0);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().reused()) << "warm connection not reused";
  ASSERT_TRUE(send_message(second.value().conn(), kEchoReq, make_payload(2)).ok());
  auto reply = recv_message(second.value().conn(), 5.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(payload_id(reply.value().payload), 2u);
}

// Satellite regression: a reply racing a deadline expiry leaves half a frame
// (or a whole late frame) in flight. The timed-out lease must be discarded —
// never released — and the next round trip must get its own reply, not the
// stale one.
TEST(PoolTest, TimedOutLeaseIsDiscardedNotReused) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();
  const std::uint64_t discards_before = metrics::counter("net.pool.discarded_total").value();

  // Handler sleeps 300 ms; the caller gives up after 50 ms.
  auto late = pool_round_trip(server.endpoint(), kEchoReq, make_payload(1, /*sleep_s=*/0.3),
                              /*timeout_s=*/0.05, /*dial_timeout_s=*/2.0);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.error().code, ErrorCode::kTimeout);
  EXPECT_EQ(pool.idle_count(), 0u) << "timed-out connection leaked back into the pool";
  EXPECT_GT(metrics::counter("net.pool.discarded_total").value(), discards_before);

  // The late reply (id 1) is still in flight toward the discarded socket.
  // A fresh round trip must dial clean and receive its own id.
  auto fresh = pool_round_trip(server.endpoint(), kEchoReq, make_payload(2),
                               /*timeout_s=*/5.0, /*dial_timeout_s=*/2.0);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(payload_id(fresh.value().payload), 2u) << "stale reply leaked into a fresh lease";
}

// Satellite regression: poison a pooled connection mid-frame via fault
// injection (stall = half a frame then silence). The lease must be
// discarded, and traffic after disarm must flow on a clean connection.
TEST(PoolTest, StalledMidFrameLeaseIsDiscarded) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();

  // Warm the pool with one good round trip.
  auto warm = pool_round_trip(server.endpoint(), kEchoReq, make_payload(1), 5.0, 2.0);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(pool.idle_count(), 1u);

  // One stalled send: the request frame stops halfway, the reply never
  // comes, the caller times out, and the poisoned connection is discarded.
  FaultPlan plan = FaultPlan::single(FaultMode::kStall, 1.0);
  plan.rules[0].max_triggers = 1;
  FaultInjector::instance().arm(server.endpoint(), plan);
  auto stalled = pool_round_trip(server.endpoint(), kEchoReq, make_payload(2),
                                 /*timeout_s=*/0.2, /*dial_timeout_s=*/2.0);
  ASSERT_FALSE(stalled.ok());
  EXPECT_EQ(pool.idle_count(), 0u) << "mid-frame poisoned connection kept for reuse";
  FaultInjector::instance().disarm_all();

  auto after = pool_round_trip(server.endpoint(), kEchoReq, make_payload(3), 5.0, 2.0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(payload_id(after.value().payload), 3u);
}

// Fault parity: an armed connect fault fires even when the pool is warm —
// the pool is a dial cache, not a way around chaos schedules.
TEST(PoolTest, ConnectFaultFiresOnWarmPool) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();

  auto warm = pool_round_trip(server.endpoint(), kEchoReq, make_payload(1), 5.0, 2.0);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(pool.idle_count(), 1u);

  FaultInjector::instance().arm(server.endpoint(),
                                FaultPlan::single(FaultMode::kConnectRefused, 1.0));
  auto refused = pool.lease(server.endpoint(), 0.2);
  EXPECT_FALSE(refused.ok()) << "warm pool bypassed an armed connect fault";
  FaultInjector::instance().disarm_all();
}

// The MSG_PEEK staleness check: a pooled connection whose peer closed it
// (server restart, idle sweep) is dropped at lease time, not handed out.
TEST(PoolTest, PeerClosedIdleConnectionIsNotHandedOut) {
  ReactorConfig config;
  config.idle_timeout_s = 0.2;  // server sweeps the idle conn out from under the pool
  EchoServer server(config);
  auto& pool = ConnectionPool::instance();
  pool.clear();

  auto warm = pool_round_trip(server.endpoint(), kEchoReq, make_payload(1), 5.0, 2.0);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(pool.idle_count(), 1u);

  sleep_seconds(1.6);  // past the server's sweep; the cached conn is now dead

  // The pool's 2.5 s idle timeout has not elapsed, so only the MSG_PEEK
  // check can save this lease from a dead socket.
  auto reply = pool_round_trip(server.endpoint(), kEchoReq, make_payload(2), 5.0, 2.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(payload_id(reply.value().payload), 2u);
}

// ---- mux channel (pipelining) ----

TEST(MuxTest, ConcurrentCallsDemuxByRequestId) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();

  auto channel = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(channel.ok());

  // Out-of-order completion by construction: id 1 sleeps, id 2 does not.
  // Both share one socket; each must get exactly its own payload back.
  std::thread slow([&] {
    auto reply = channel.value()->call(kEchoReq, make_payload(1, /*sleep_s=*/0.4), kEchoRep,
                                       1, /*timeout_s=*/5.0);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(payload_id(reply.value().payload), 1u);
  });
  sleep_seconds(0.05);  // let the slow call hit the wire first
  auto fast = channel.value()->call(kEchoReq, make_payload(2), kEchoRep, 2, 5.0);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(payload_id(fast.value().payload), 2u);
  slow.join();

  // Both calls shared one pipelined connection.
  EXPECT_EQ(server.reactor().connection_count(), 1u);
}

TEST(MuxTest, ManyPipelinedCallsOverOneSocket) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();

  constexpr int kCalls = 24;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < kCalls; ++i) {
    threads.emplace_back([&, i] {
      auto channel = pool.channel(server.endpoint(), 2.0);
      ASSERT_TRUE(channel.ok());
      const auto id = static_cast<std::uint64_t>(i + 1);
      auto reply = channel.value()->call(kEchoReq, make_payload(id), kEchoRep, id, 5.0);
      if (reply.ok() && payload_id(reply.value().payload) == id) ok_count.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kCalls);
  EXPECT_EQ(server.reactor().connection_count(), 1u)
      << "pipelined calls dialed extra sockets";
}

// A timed-out mux call deregisters its waiter; the late reply is read and
// discarded whole, so the channel keeps serving later calls on the same
// socket (no poisoning, no eviction).
TEST(MuxTest, LateReplyAfterTimeoutIsDiscardedChannelSurvives) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();

  auto channel = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(channel.ok());
  auto late = channel.value()->call(kEchoReq, make_payload(1, /*sleep_s=*/0.3), kEchoRep, 1,
                                    /*timeout_s=*/0.05);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.error().code, ErrorCode::kTimeout);

  sleep_seconds(0.4);  // the late reply lands and must be dropped whole
  EXPECT_TRUE(channel.value()->healthy());
  auto after = channel.value()->call(kEchoReq, make_payload(2), kEchoRep, 2, 5.0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(payload_id(after.value().payload), 2u);
}

// Satellite regression: connection reuse survives arm_fault mid-stream
// resets — the poisoned channel is evicted and the next call redials.
TEST(MuxTest, MidStreamResetEvictsChannelAndRedials) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();
  const std::uint64_t evicted_before = metrics::counter("net.mux.evicted_total").value();
  const std::uint64_t poisoned_before = metrics::counter("net.mux.poisoned_total").value();

  auto first = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(first.ok());
  auto warm = first.value()->call(kEchoReq, make_payload(1), kEchoRep, 1, 5.0);
  ASSERT_TRUE(warm.ok());

  // One reset: the send tears the stream mid-frame and the channel poisons.
  FaultPlan plan = FaultPlan::single(FaultMode::kReset, 1.0);
  plan.rules[0].max_triggers = 1;
  FaultInjector::instance().arm(server.endpoint(), plan);
  auto reset = first.value()->call(kEchoReq, make_payload(2), kEchoRep, 2, 5.0);
  ASSERT_FALSE(reset.ok());
  EXPECT_TRUE(is_retryable(reset.error().code)) << reset.error().to_string();
  EXPECT_FALSE(first.value()->healthy());
  EXPECT_GT(metrics::counter("net.mux.poisoned_total").value(), poisoned_before);
  FaultInjector::instance().disarm_all();

  // Next channel() evicts the poisoned one and redials.
  auto second = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value().get(), first.value().get());
  EXPECT_GT(metrics::counter("net.mux.evicted_total").value(), evicted_before);
  auto after = second.value()->call(kEchoReq, make_payload(3), kEchoRep, 3, 5.0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(payload_id(after.value().payload), 3u);

  // Two calls pending when the channel is poisoned: each completion fires
  // exactly once, with a retryable error, at the poisoning — not when its
  // (1 s away) reply would have come.
  struct CountingCompletion final : MuxCompletion {
    std::atomic<int> fired{0};
    std::atomic<bool> retryable{false};
    void complete(Result<Message> reply) override {
      retryable = !reply.ok() && is_retryable(reply.error().code);
      fired.fetch_add(1);
    }
  };
  CountingCompletion pending_a;
  CountingCompletion pending_b;
  second.value()->start(kEchoReq, make_payload(4, /*sleep_s=*/1.0), kEchoRep, 4, &pending_a);
  second.value()->start(kEchoReq, make_payload(5, /*sleep_s=*/1.0), kEchoRep, 5, &pending_b);
  FaultInjector::instance().arm(server.endpoint(), plan);
  const Stopwatch poison_watch;
  auto poisoning = second.value()->call(kEchoReq, make_payload(6), kEchoRep, 6, 5.0);
  EXPECT_FALSE(poisoning.ok());
  const Deadline fire_deadline(0.5);
  while ((pending_a.fired.load() == 0 || pending_b.fired.load() == 0) &&
         !fire_deadline.expired()) {
    sleep_seconds(0.005);
  }
  EXPECT_LT(poison_watch.elapsed(), 0.5) << "pending calls waited past the poisoning";
  FaultInjector::instance().disarm_all();
  sleep_seconds(1.2);  // past the replies' due time: nothing may fire again
  EXPECT_FALSE(second.value()->healthy());
  EXPECT_EQ(pending_a.fired.load(), 1);
  EXPECT_EQ(pending_b.fired.load(), 1);
  EXPECT_TRUE(pending_a.retryable.load());
  EXPECT_TRUE(pending_b.retryable.load());
  // Fired completions are no longer registered.
  EXPECT_FALSE(second.value()->withdraw(4, kEchoRep, &pending_a));
  EXPECT_FALSE(second.value()->withdraw(5, kEchoRep, &pending_b));
}

// The mux reader enforces the client frame cap at header-decode time: a
// reply header claiming more than kClientMaxFrameBytes fails the pending
// call with kProtocol and poisons the channel before any payload is read.
// The fake peer sends that header alone and then holds the socket open, so
// a reader that went on to read the claimed payload would stall into the
// 1 s mid-frame bound and fail with a timeout instead.
TEST(MuxTest, OversizedReplyHeaderPoisonsBeforePayloadRead) {
  auto listener = TcpListener::bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  const Endpoint endpoint = listener.value().endpoint();
  std::thread peer([&] {
    auto conn = listener.value().accept(5.0);
    if (!conn.ok()) return;
    if (!recv_message(conn.value(), 5.0).ok()) return;
    serial::FrameHeader header;
    header.type = kEchoRep;
    header.length = static_cast<std::uint32_t>(kClientMaxFrameBytes + 1);
    std::uint8_t bytes[serial::kHeaderSize];
    serial::encode_header(header, bytes);
    if (!conn.value().send_all(bytes, sizeof(bytes)).ok()) return;
    std::uint8_t byte = 0;
    (void)conn.value().recv_all(&byte, 1, 5.0);  // hold open until the client closes
  });

  auto& pool = ConnectionPool::instance();
  pool.clear();
  const std::uint64_t oversized_before = metrics::counter("net.guard.oversized_total").value();
  auto channel = pool.channel(endpoint, 2.0);
  std::optional<Result<Message>> reply;
  double elapsed = 0.0;
  if (channel.ok()) {
    const Stopwatch watch;
    reply.emplace(channel.value()->call(kEchoReq, make_payload(1), kEchoRep, 1, 5.0));
    elapsed = watch.elapsed();
  }
  peer.join();

  ASSERT_TRUE(channel.ok()) << channel.error().to_string();
  ASSERT_FALSE(reply->ok());
  EXPECT_EQ(reply->error().code, ErrorCode::kProtocol) << reply->error().to_string();
  EXPECT_LT(elapsed, 0.5) << "reader waited on the claimed payload";
  EXPECT_FALSE(channel.value()->healthy());
  EXPECT_GT(metrics::counter("net.guard.oversized_total").value(), oversized_before);
  pool.clear();
}

}  // namespace
}  // namespace ns::net
