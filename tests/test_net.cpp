// Tests for ns_net: sockets, framed transport, shaped-link timing.
#include <gtest/gtest.h>

#include <thread>

#include "common/clock.hpp"
#include "net/shaped_link.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"

namespace ns::net {
namespace {

TEST(SocketTest, BindEphemeralAndQueryPort) {
  auto listener = TcpListener::bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  EXPECT_GT(listener.value().port(), 0);
}

TEST(SocketTest, ConnectAcceptRoundTrip) {
  auto listener = TcpListener::bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());

  std::thread client_thread([ep = listener.value().endpoint()] {
    auto conn = TcpConnection::connect(ep);
    ASSERT_TRUE(conn.ok());
    const char msg[] = "ping!";
    ASSERT_TRUE(conn.value().send_all(msg, sizeof(msg)).ok());
    char reply[6] = {};
    ASSERT_TRUE(conn.value().recv_all(reply, sizeof(reply), 2.0).ok());
    EXPECT_STREQ(reply, "pong!");
  });

  auto server_conn = listener.value().accept(2.0);
  ASSERT_TRUE(server_conn.ok());
  char buf[6] = {};
  ASSERT_TRUE(server_conn.value().recv_all(buf, sizeof(buf), 2.0).ok());
  EXPECT_STREQ(buf, "ping!");
  const char reply[] = "pong!";
  ASSERT_TRUE(server_conn.value().send_all(reply, sizeof(reply)).ok());
  client_thread.join();
}

TEST(SocketTest, AcceptTimesOut) {
  auto listener = TcpListener::bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  const Stopwatch watch;
  auto conn = listener.value().accept(0.05);
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.error().code, ErrorCode::kTimeout);
  EXPECT_GE(watch.elapsed(), 0.04);
}

TEST(SocketTest, RecvTimesOutOnSilence) {
  auto listener = TcpListener::bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  auto client = TcpConnection::connect(listener.value().endpoint());
  ASSERT_TRUE(client.ok());
  auto server_conn = listener.value().accept(1.0);
  ASSERT_TRUE(server_conn.ok());

  char buf[4];
  auto status = server_conn.value().recv_all(buf, sizeof(buf), 0.05);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kTimeout);
}

TEST(SocketTest, RecvDetectsPeerClose) {
  auto listener = TcpListener::bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  auto client = TcpConnection::connect(listener.value().endpoint());
  ASSERT_TRUE(client.ok());
  auto server_conn = listener.value().accept(1.0);
  ASSERT_TRUE(server_conn.ok());
  client.value().close();

  char buf[4];
  auto status = server_conn.value().recv_all(buf, sizeof(buf), 1.0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kConnectionClosed);
}

TEST(SocketTest, ConnectToClosedPortFails) {
  // Bind-then-close to find a port that is (very likely) not listening.
  std::uint16_t dead_port;
  {
    auto listener = TcpListener::bind({"127.0.0.1", 0});
    ASSERT_TRUE(listener.ok());
    dead_port = listener.value().port();
  }
  auto conn = TcpConnection::connect({"127.0.0.1", dead_port}, /*timeout_secs=*/0.1);
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.error().code, ErrorCode::kConnectFailed);
}

TEST(SocketTest, BadAddressRejected) {
  auto conn = TcpConnection::connect({"not-an-ip", 80}, 0.1);
  ASSERT_FALSE(conn.ok());
  auto listener = TcpListener::bind({"999.0.0.1", 0});
  ASSERT_FALSE(listener.ok());
}

TEST(SocketTest, EndpointIntrospection) {
  auto listener = TcpListener::bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  auto client = TcpConnection::connect(listener.value().endpoint());
  ASSERT_TRUE(client.ok());
  auto peer = client.value().peer_endpoint();
  ASSERT_TRUE(peer.ok());
  EXPECT_EQ(peer.value().port, listener.value().port());
  EXPECT_EQ(peer.value().host, "127.0.0.1");
  auto local = client.value().local_endpoint();
  ASSERT_TRUE(local.ok());
  EXPECT_GT(local.value().port, 0);
}

TEST(SocketTest, LargeTransferIntegrity) {
  auto listener = TcpListener::bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());

  constexpr std::size_t kSize = 4 * 1024 * 1024;
  std::vector<std::uint8_t> data(kSize);
  for (std::size_t i = 0; i < kSize; ++i) data[i] = static_cast<std::uint8_t>(i * 7);

  std::thread sender([ep = listener.value().endpoint(), &data] {
    auto conn = TcpConnection::connect(ep);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.value().send_all(data.data(), data.size()).ok());
  });

  auto conn = listener.value().accept(2.0);
  ASSERT_TRUE(conn.ok());
  std::vector<std::uint8_t> received(kSize);
  ASSERT_TRUE(conn.value().recv_all(received.data(), received.size(), 10.0).ok());
  sender.join();
  EXPECT_EQ(received, data);
}

// ---- transport ----

TEST(TransportTest, MessageRoundTrip) {
  auto listener = TcpListener::bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());

  serial::Bytes payload{10, 20, 30};
  std::thread sender([ep = listener.value().endpoint(), &payload] {
    auto conn = TcpConnection::connect(ep);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(send_message(conn.value(), 5, payload).ok());
    ASSERT_TRUE(send_message(conn.value(), 6, {}).ok());
  });

  auto conn = listener.value().accept(2.0);
  ASSERT_TRUE(conn.ok());
  auto msg1 = recv_message(conn.value(), 2.0);
  ASSERT_TRUE(msg1.ok());
  EXPECT_EQ(msg1.value().type, 5);
  EXPECT_EQ(msg1.value().payload, payload);
  auto msg2 = recv_message(conn.value(), 2.0);
  ASSERT_TRUE(msg2.ok());
  EXPECT_EQ(msg2.value().type, 6);
  EXPECT_TRUE(msg2.value().payload.empty());
  sender.join();
}

TEST(TransportTest, GarbageStreamRejected) {
  auto listener = TcpListener::bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  std::thread sender([ep = listener.value().endpoint()] {
    auto conn = TcpConnection::connect(ep);
    ASSERT_TRUE(conn.ok());
    const char junk[32] = "this is not a NetSolve frame!!";
    ASSERT_TRUE(conn.value().send_all(junk, sizeof(junk)).ok());
  });
  auto conn = listener.value().accept(2.0);
  ASSERT_TRUE(conn.ok());
  auto msg = recv_message(conn.value(), 2.0);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.error().code, ErrorCode::kProtocol);
  sender.join();
}

TEST(TransportTest, OversizedFrameLengthRejected) {
  auto listener = TcpListener::bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  std::thread sender([ep = listener.value().endpoint()] {
    auto conn = TcpConnection::connect(ep);
    ASSERT_TRUE(conn.ok());
    // Hand-craft a header claiming a payload beyond kMaxPayload.
    serial::FrameHeader header;
    header.type = 1;
    header.length = 0xffffffffu;
    std::uint8_t buf[serial::kHeaderSize];
    serial::encode_header(header, buf);
    ASSERT_TRUE(conn.value().send_all(buf, sizeof(buf)).ok());
  });
  auto conn = listener.value().accept(2.0);
  ASSERT_TRUE(conn.ok());
  auto msg = recv_message(conn.value(), 2.0);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.error().code, ErrorCode::kProtocol);
  sender.join();
}

// ---- shaped link ----

TEST(LinkShapeTest, Predictions) {
  const LinkShape unshaped = LinkShape::unshaped();
  EXPECT_TRUE(unshaped.is_unshaped());
  EXPECT_EQ(unshaped.predict_seconds(1 << 20), 0.0);

  const LinkShape wan = LinkShape::wan();
  EXPECT_FALSE(wan.is_unshaped());
  // 20 ms + 1 MiB / 1.25 MB/s ~= 0.86 s
  EXPECT_NEAR(wan.predict_seconds(1 << 20), 0.020 + 1048576.0 / 1.25e6, 1e-9);
}

TEST(ShapedLinkTest, LatencyDelaysDelivery) {
  auto listener = TcpListener::bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  LinkShape shape;
  shape.latency_s = 0.05;

  // The clock starts before the sender exists: its latency sleep begins
  // right after connect, so a clock started after a late accept() would
  // miss part of the delay.
  const Stopwatch watch;
  std::thread sender([ep = listener.value().endpoint(), shape] {
    auto conn = TcpConnection::connect(ep);
    ASSERT_TRUE(conn.ok());
    const char msg[8] = "hello";
    ASSERT_TRUE(shaped_send(conn.value(), msg, sizeof(msg), shape).ok());
  });

  auto conn = listener.value().accept(2.0);
  ASSERT_TRUE(conn.ok());
  char buf[8];
  ASSERT_TRUE(conn.value().recv_all(buf, sizeof(buf), 2.0).ok());
  EXPECT_GE(watch.elapsed(), 0.045);
  sender.join();
}

TEST(ShapedLinkTest, BandwidthPacesLargeTransfer) {
  auto listener = TcpListener::bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  LinkShape shape;
  shape.bandwidth_Bps = 10e6;  // 10 MB/s
  constexpr std::size_t kBytes = 1 * 1024 * 1024;
  const double expected = static_cast<double>(kBytes) / shape.bandwidth_Bps;  // ~0.105 s

  std::thread sender([ep = listener.value().endpoint(), shape] {
    auto conn = TcpConnection::connect(ep);
    ASSERT_TRUE(conn.ok());
    std::vector<std::uint8_t> data(kBytes, 0x5a);
    ASSERT_TRUE(shaped_send(conn.value(), data.data(), data.size(), shape).ok());
  });

  auto conn = listener.value().accept(2.0);
  ASSERT_TRUE(conn.ok());
  const Stopwatch watch;
  std::vector<std::uint8_t> buf(kBytes);
  ASSERT_TRUE(conn.value().recv_all(buf.data(), buf.size(), 10.0).ok());
  const double elapsed = watch.elapsed();
  sender.join();
  EXPECT_GE(elapsed, expected * 0.8) << "pacing too fast";
  EXPECT_LE(elapsed, expected * 3.0) << "pacing way too slow";
}

TEST(ShapedLinkTest, UnshapedFastPathDeliversData) {
  auto listener = TcpListener::bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  std::thread sender([ep = listener.value().endpoint()] {
    auto conn = TcpConnection::connect(ep);
    ASSERT_TRUE(conn.ok());
    std::vector<std::uint8_t> data(100000, 0x11);
    ASSERT_TRUE(shaped_send(conn.value(), data.data(), data.size(), LinkShape::unshaped()).ok());
  });
  auto conn = listener.value().accept(2.0);
  ASSERT_TRUE(conn.ok());
  std::vector<std::uint8_t> buf(100000);
  ASSERT_TRUE(conn.value().recv_all(buf.data(), buf.size(), 5.0).ok());
  sender.join();
  EXPECT_EQ(buf[99999], 0x11);
}

TEST(ShapedLinkTest, ShapedMessagePreservesFraming) {
  auto listener = TcpListener::bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  LinkShape shape;
  shape.latency_s = 0.01;
  shape.bandwidth_Bps = 50e6;

  serial::Bytes payload(200000);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i);

  std::thread sender([ep = listener.value().endpoint(), shape, &payload] {
    auto conn = TcpConnection::connect(ep);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(send_message(conn.value(), 3, payload, shape).ok());
  });
  auto conn = listener.value().accept(2.0);
  ASSERT_TRUE(conn.ok());
  auto msg = recv_message(conn.value(), 5.0);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value().payload, payload);
  sender.join();
}

}  // namespace
}  // namespace ns::net
