// Chaos suite for the transport armor: every attack in the hostile-peer kit
// runs against a live cluster while a legitimate client keeps solving, and
// the armor must (a) keep legitimate goodput at or above 95%, (b) hold the
// configured budgets, and (c) count every shed/evict/kill decision in a
// net.guard.* metric — load-shedding an operator cannot see is
// indistinguishable from failure.
//
// Counters are process-global and cumulative across tests in this binary,
// so every assertion is on a before/after delta, never an absolute value.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <thread>
#include <utility>
#include <vector>

#include "client/client.hpp"
#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "proto/messages.hpp"
#include "testkit/cluster.hpp"
#include "testkit/hostile.hpp"

#include "conservation.hpp"

namespace ns {
namespace {

using dsl::DataObject;

template <typename Pred>
bool eventually(Pred pred, double timeout_s = 5.0) {
  const Deadline deadline(timeout_s);
  while (!deadline.expired()) {
    if (pred()) return true;
    sleep_seconds(0.005);
  }
  return pred();
}

std::uint64_t counter_value(const char* name) { return metrics::counter(name).value(); }

/// One full-speed sleep-mode server with the given armor; deadline-budgeted
/// clients so a BUSY-shed dial retries instead of surfacing as a failure —
/// the cooperative loop the armor is designed around.
Result<std::unique_ptr<testkit::TestCluster>> armored_cluster(net::GuardConfig guard) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(1, /*workers=*/2);
  config.servers[0].slowdown_mode = server::SlowdownMode::kSleep;
  config.servers[0].guard = guard;
  config.rating_base = 2000.0;
  config.io_timeout_s = 10.0;
  config.client_deadline_s = 10.0;
  return testkit::TestCluster::start(std::move(config));
}

/// Run `total` back-to-back solves while an attack rages; returns successes.
int legit_goodput(testkit::TestCluster& cluster, int total) {
  auto client = cluster.make_client();
  int ok = 0;
  for (int i = 0; i < total; ++i) {
    auto result = client.netsl("simwork", {DataObject(std::int64_t{5})});
    if (result.ok()) ++ok;
  }
  return ok;
}

// ---- slowloris: byte-drip payloads must die by progress deadline ----

TEST(HostileTest, SlowlorisIsKilledAndLegitGoodputHolds) {
  net::GuardConfig guard;
  guard.frame_progress_timeout_s = 0.5;
  auto cluster = armored_cluster(guard);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();

  const std::uint64_t kills_before = counter_value("net.guard.progress_kill_total");

  testkit::AttackConfig attack;
  attack.target = cluster.value()->server(0).endpoint();
  attack.duration_s = 2.5;
  attack.concurrency = 4;
  attack.drip_interval_s = 0.05;
  std::thread attacker([&] { testkit::run_slowloris(attack); });

  const int total = 40;
  const int ok = legit_goodput(*cluster.value(), total);
  attacker.join();

  EXPECT_GE(ok, total * 95 / 100) << "slowloris degraded legitimate goodput";
  // Every dripping connection must eventually hit the progress deadline:
  // each byte is "activity" so only the frame-completion clock can fire.
  EXPECT_GE(counter_value("net.guard.progress_kill_total"), kills_before + 1);
  conservation::expect_conserved(*cluster.value(), tally);
}

// ---- giant frame: rejected at header-decode time, before any buffering ----

TEST(HostileTest, GiantFrameClaimIsRejectedWithoutBuffering) {
  net::GuardConfig guard;
  guard.max_frame_bytes = 1u << 20;  // this server does metadata-sized work
  auto cluster = armored_cluster(guard);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();
  auto& server = cluster.value()->server(0);

  const std::uint64_t oversized_before = counter_value("net.guard.oversized_total");

  testkit::AttackConfig attack;
  attack.target = server.endpoint();
  attack.duration_s = 2.0;
  attack.concurrency = 4;
  attack.giant_frame_len = 512u << 20;  // claims 512 MiB per header
  std::thread attacker([&] { testkit::run_giant_frame(attack); });

  // While headers claiming gigabytes arrive, the server must never buffer
  // anything near the claimed sizes: rejection happens before allocation.
  std::size_t max_buffered = 0;
  const Deadline watch(2.0);
  while (!watch.expired()) {
    max_buffered = std::max(max_buffered, server.transport_buffered_bytes());
    sleep_seconds(0.01);
  }
  const int ok = legit_goodput(*cluster.value(), 20);
  attacker.join();

  EXPECT_GE(counter_value("net.guard.oversized_total"), oversized_before + 1);
  EXPECT_LT(max_buffered, std::size_t{8} << 20)
      << "oversized claims must cost kHeaderSize, not an allocation";
  EXPECT_GE(ok, 19) << "giant-frame bomb degraded legitimate goodput";
  conservation::expect_conserved(*cluster.value(), tally);
}

// ---- garbage fuzzer: close, never crash, never misframe later traffic ----

TEST(HostileTest, GarbagePeerNeverDisruptsLegitTraffic) {
  auto cluster = armored_cluster(net::GuardConfig{});
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();

  testkit::AttackConfig attack;
  attack.target = cluster.value()->server(0).endpoint();
  attack.duration_s = 2.5;
  attack.concurrency = 4;
  attack.seed = 0xfeedface;
  std::thread attacker([&] { testkit::run_garbage(attack); });

  const int total = 40;
  const int ok = legit_goodput(*cluster.value(), total);
  attacker.join();

  EXPECT_GE(ok, total * 95 / 100) << "garbage fuzzer degraded legitimate goodput";
  conservation::expect_conserved(*cluster.value(), tally);
}

// ---- connection flood: cap held, idle LRU evicted, sheds counted ----

TEST(HostileTest, ConnectionFloodIsCappedWithLruEviction) {
  net::GuardConfig guard;
  guard.max_connections = 16;
  guard.retry_after_s = 0.1;
  auto cluster = armored_cluster(guard);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();
  auto& server = cluster.value()->server(0);

  const std::uint64_t evicted_before = counter_value("net.guard.evicted_total");
  const std::uint64_t shed_before = counter_value("net.guard.accept_shed_total");

  testkit::AttackConfig attack;
  attack.target = server.endpoint();
  attack.duration_s = 2.5;
  attack.concurrency = 4;
  attack.conns_per_thread = 16;  // 64 wanted vs a cap of 16
  std::thread attacker([&] { testkit::run_connection_flood(attack); });

  // The cap is a hard invariant, sampled throughout the flood. (+1 slack:
  // the count is taken between accept and a shed decision.)
  std::size_t max_conns = 0;
  const Deadline watch(2.0);
  while (!watch.expired()) {
    max_conns = std::max(max_conns, server.transport_connections());
    sleep_seconds(0.005);
  }
  const int total = 30;
  const int ok = legit_goodput(*cluster.value(), total);
  attacker.join();

  EXPECT_LE(max_conns, guard.max_connections + 1) << "connection cap breached";
  const std::uint64_t evicted = counter_value("net.guard.evicted_total") - evicted_before;
  const std::uint64_t shed = counter_value("net.guard.accept_shed_total") - shed_before;
  EXPECT_GE(evicted + shed, 1u) << "flood absorbed without any counted decision";
  EXPECT_GE(ok, total * 95 / 100)
      << "legit client starved by the flood (evicted=" << evicted << " shed=" << shed << ")";
  conservation::expect_conserved(*cluster.value(), tally);
}

// ---- half-open storm: partial headers pin fds until the deadline reaps ----

TEST(HostileTest, HalfOpenStormIsReaped) {
  net::GuardConfig guard;
  guard.frame_progress_timeout_s = 0.5;
  auto cluster = armored_cluster(guard);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();
  auto& server = cluster.value()->server(0);
  const std::size_t baseline = server.transport_connections();

  const std::uint64_t kills_before = counter_value("net.guard.progress_kill_total");

  testkit::AttackConfig attack;
  attack.target = server.endpoint();
  attack.duration_s = 2.0;
  attack.concurrency = 4;
  attack.conns_per_thread = 8;
  testkit::AttackStats stats = testkit::run_half_open(attack);
  EXPECT_GT(stats.connections, 0u);

  // A half-open socket sent half a header: unconsumed bytes with no frame
  // completion, so the progress deadline must reap every one of them.
  EXPECT_GE(counter_value("net.guard.progress_kill_total"), kills_before + 1);
  EXPECT_TRUE(eventually(
      [&] { return server.transport_connections() <= baseline + 2; }, 5.0))
      << "abandoned half-open connections still pinned after the storm: "
      << server.transport_connections();

  EXPECT_GE(legit_goodput(*cluster.value(), 10), 10);
  conservation::expect_conserved(*cluster.value(), tally);
}

// ---- header-only claims: a bare header is charged for its own bytes only ----

// One header claims a payload that would take the reactor to just under its
// hot mark, then more headers each claim 1 MiB and go silent, on a server
// with an 8 MiB global ceiling. All are large enough to be received straight
// into a payload, yet none is charged for more than what arrived, so the
// accept governor never sheds a dial and legitimate calls keep flowing. The
// progress deadline reaps every claim and the budgets return to 0.
TEST(HostileTest, HeaderOnlyClaimsAreChargedOnlyForWhatArrived) {
  net::GuardConfig guard;
  guard.max_total_buffer_bytes = 8u << 20;
  guard.frame_progress_timeout_s = 0.5;
  const std::size_t hot_mark =
      guard.max_total_buffer_bytes - guard.max_total_buffer_bytes / 8;
  auto cluster = armored_cluster(guard);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();
  auto& server = cluster.value()->server(0);

  const std::uint64_t shed_before = counter_value("net.guard.accept_shed_total");
  const std::uint64_t kills_before = counter_value("net.guard.progress_kill_total");

  std::vector<net::TcpConnection> claims;  // held open: only the deadline may reap them
  auto claim = [&](std::uint32_t length) {
    std::uint8_t header[serial::kHeaderSize];
    serial::encode_header({.type = 1, .length = length}, header);
    auto conn = net::TcpConnection::connect(server.endpoint());
    if (conn.ok() && conn.value().send_all(header, sizeof header).ok()) {
      claims.push_back(std::move(conn).value());
    }
  };
  claim(static_cast<std::uint32_t>(hot_mark - serial::kHeaderSize - 1));
  ASSERT_EQ(claims.size(), 1u);
  ASSERT_TRUE(eventually([&] { return server.transport_buffered_bytes() >= serial::kHeaderSize; }));

  std::atomic<bool> attacking{true};
  std::thread attacker([&] {
    const Deadline deadline(2.5);
    while (!deadline.expired()) {
      for (int i = 0; i < 2; ++i) claim(1u << 20);
      sleep_seconds(0.05);
    }
    attacking.store(false);
  });
  std::size_t max_buffered = 0;
  double max_gauge = 0.0;
  std::thread sampler([&] {
    while (attacking.load()) {
      max_buffered = std::max(max_buffered, server.transport_buffered_bytes());
      max_gauge = std::max(max_gauge, metrics::gauge("net.guard.buffered_bytes").value());
      sleep_seconds(0.002);
    }
  });

  sleep_seconds(0.3);  // let the claims pile up past the hot mark first
  const int ok = legit_goodput(*cluster.value(), 20);
  attacker.join();
  sampler.join();

  EXPECT_GT(claims.size(), 16u) << "the attack claimed less than the hot mark";
  EXPECT_LT(max_buffered, std::size_t{1} << 20) << "a bare header was charged for its claim";
  EXPECT_LT(max_gauge, static_cast<double>(hot_mark));
  EXPECT_EQ(counter_value("net.guard.accept_shed_total"), shed_before)
      << "header-only claims made the reactor shed dials";
  EXPECT_GE(ok, 19) << "header-only claims degraded legitimate goodput";

  EXPECT_TRUE(eventually([&] { return server.transport_buffered_bytes() == 0; }))
      << "claims still charged after the deadline: " << server.transport_buffered_bytes();
  EXPECT_GE(counter_value("net.guard.progress_kill_total"), kills_before + claims.size());
  conservation::expect_conserved(*cluster.value(), tally);
}

// ---- slow reader: a peer that never reads its replies hits the write budget --

constexpr std::uint16_t kBlobReq = 61;
constexpr std::uint16_t kBlobRep = 62;

/// Minimal reactor harness: every request is answered with a 64 KiB blob —
/// the amplification shape (tiny request, fat reply) that makes a non-reading
/// peer dangerous.
class BlobServer {
 public:
  explicit BlobServer(net::GuardConfig guard) {
    net::ReactorConfig config;
    config.guard = guard;
    auto listener = net::TcpListener::bind({"127.0.0.1", 0});
    EXPECT_TRUE(listener.ok());
    endpoint_ = listener.value().endpoint();
    auto status = reactor_.start(
        std::move(listener).value(),
        [](const net::ReactorConnPtr& conn, net::Message&& msg) {
          if (msg.type != kBlobReq) return false;
          return conn->send(kBlobRep, serial::Bytes(64 << 10, 0x5a)).ok();
        },
        config);
    EXPECT_TRUE(status.ok());
  }
  ~BlobServer() { reactor_.stop(); }

  const net::Endpoint& endpoint() const { return endpoint_; }

 private:
  net::Endpoint endpoint_;
  net::Reactor reactor_;
};

TEST(HostileTest, SlowReaderTripsWriteBudgetAndIsDropped) {
  net::GuardConfig guard;
  guard.max_frame_bytes = 1u << 20;
  guard.max_conn_buffer_bytes = 512u << 10;  // budget: half a MiB queued max
  BlobServer server(guard);

  const std::uint64_t overflow_before = counter_value("net.guard.conn_overflow_total");

  // Request 8 MiB of replies and read none of them: the kernel socket buffer
  // fills, the write queue grows past the budget, and the armor must drop us
  // rather than buffer without bound.
  auto peer = net::TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(peer.ok());
  for (int i = 0; i < 128; ++i) {
    if (!net::send_message(peer.value(), kBlobReq, serial::Bytes{1}).ok()) break;
  }
  ASSERT_TRUE(eventually(
      [&] { return counter_value("net.guard.conn_overflow_total") > overflow_before; }))
      << "non-reading peer never hit the write budget";
  peer.value().close();

  // The reactor itself must be unharmed: a well-behaved connection round-trips.
  auto good = net::TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(net::send_message(good.value(), kBlobReq, serial::Bytes{2}).ok());
  auto reply = net::recv_message(good.value(), 5.0);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(reply.value().type, kBlobRep);
}

// ---- malformed control frames: a payload that does not decode drops only
// its own connection ----

template <typename Msg>
serial::Bytes truncated(const Msg& msg) {
  serial::Encoder enc;
  msg.encode(enc);
  serial::Bytes payload = enc.take();
  payload.pop_back();  // every field is mandatory: one byte short never decodes
  return payload;
}

TEST(HostileTest, TruncatedControlFramesDropOnlyTheirConnection) {
  auto cluster = armored_cluster(net::GuardConfig{});
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();
  const net::Endpoint endpoint = cluster.value()->server(0).endpoint();

  using proto::MessageType;
  proto::JobTransfer transfer;
  transfer.request.request_id = 5001;
  transfer.request.problem = "simwork";
  transfer.from_server = "peer";
  proto::CheckpointPut put;
  put.origin = "peer";
  put.request_id = 5002;
  proto::CheckpointFetch fetch;
  fetch.request_id = 5002;
  fetch.adopt = true;
  const std::vector<std::pair<MessageType, serial::Bytes>> frames = {
      {MessageType::kCancelRequest, truncated(proto::CancelRequest{})},
      {MessageType::kDrainRequest, truncated(proto::DrainRequest{})},
      {MessageType::kProbeRequest, truncated(proto::ProbeRequest{})},
      {MessageType::kJobTransfer, truncated(transfer)},
      {MessageType::kCheckpointPut, truncated(put)},
      {MessageType::kCheckpointFetch, truncated(fetch)},
  };
  for (const auto& [type, payload] : frames) {
    SCOPED_TRACE(static_cast<int>(type));
    auto bad = net::TcpConnection::connect(endpoint);
    ASSERT_TRUE(bad.ok()) << bad.error().to_string();
    ASSERT_TRUE(
        net::send_message(bad.value(), static_cast<std::uint16_t>(type), payload).ok());
    auto reply = net::recv_message(bad.value(), 5.0);
    ASSERT_FALSE(reply.ok()) << "server answered a truncated control frame";
    EXPECT_EQ(reply.error().code, ErrorCode::kConnectionClosed)
        << reply.error().to_string();

    auto good = net::TcpConnection::connect(endpoint);
    ASSERT_TRUE(good.ok()) << good.error().to_string();
    ASSERT_TRUE(
        net::send_message(good.value(), static_cast<std::uint16_t>(MessageType::kPing), {})
            .ok());
    auto pong = net::recv_message(good.value(), 5.0);
    ASSERT_TRUE(pong.ok()) << pong.error().to_string();
    EXPECT_EQ(pong.value().type, static_cast<std::uint16_t>(MessageType::kPong));
  }
  // None of them took effect: no drain started, nothing adopted or stored.
  EXPECT_FALSE(cluster.value()->server(0).draining());
  EXPECT_EQ(cluster.value()->server(0).replica_holds(), 0u);
  conservation::expect_conserved(*cluster.value(), tally);
}

// ---- fd pressure: EMFILE on accept must shed, count, and recover ----
// (Own gtest suite name: CI runs it under a lowered `ulimit -n`.)

std::size_t open_fd_count() {
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

/// Restore RLIMIT_NOFILE on every exit path — a leaked low limit would make
/// every later test in the binary fail mysteriously.
struct RlimitGuard {
  rlimit saved{};
  RlimitGuard() { getrlimit(RLIMIT_NOFILE, &saved); }
  ~RlimitGuard() { setrlimit(RLIMIT_NOFILE, &saved); }
};

TEST(FdPressure, EmfileAcceptShedsCountsAndRecovers) {
  BlobServer server(net::GuardConfig{});

  const std::uint64_t errors_before = counter_value("net.guard.accept_errors_total");

  // Pre-create client sockets while fds are plentiful; connect() later needs
  // no new descriptor, so the handshake lands in the server backlog even
  // after the process is starved — forcing accept4 itself to fail EMFILE.
  std::vector<int> socks;
  for (int i = 0; i < 4; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    socks.push_back(fd);
  }

  RlimitGuard restore;
  {
    rlimit squeezed = restore.saved;
    squeezed.rlim_cur = open_fd_count();  // zero headroom for new fds
    ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &squeezed), 0);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.endpoint().port);
    ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    for (const int fd : socks) {
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    }

    // The reserve-fd trick must let the reactor drain the backlog (close
    // reserve, accept, close victim, reopen) instead of wedging or spinning.
    EXPECT_TRUE(eventually([&] {
      return counter_value("net.guard.accept_errors_total") > errors_before;
    })) << "accept under EMFILE was never classified and counted";

    setrlimit(RLIMIT_NOFILE, &restore.saved);
  }
  for (const int fd : socks) ::close(fd);

  // With the limit restored the endpoint must serve as if nothing happened.
  auto good = net::TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(net::send_message(good.value(), kBlobReq, serial::Bytes{3}).ok());
  auto reply = net::recv_message(good.value(), 5.0);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(reply.value().type, kBlobRep);
}

}  // namespace
}  // namespace ns
