#include "net/shaped_link.hpp"

#include <algorithm>

#include "common/clock.hpp"

namespace ns::net {

namespace {
constexpr std::size_t kChunk = 64 * 1024;
}

Status shaped_send(TcpConnection& conn, const void* data, std::size_t size,
                   const LinkShape& shape) {
  return shaped_send(conn, data, size, nullptr, 0, shape);
}

Status shaped_send(TcpConnection& conn, const void* head, std::size_t head_size,
                   const void* body, std::size_t body_size, const LinkShape& shape) {
  if (shape.is_unshaped()) {
    return conn.send_all(head, head_size, body, body_size);
  }
  if (shape.latency_s > 0) {
    sleep_seconds(shape.latency_s);
  }
  const bool paced = shape.bandwidth_Bps < std::numeric_limits<double>::infinity() &&
                     shape.bandwidth_Bps > 0;
  if (!paced) {
    return conn.send_all(head, head_size, body, body_size);
  }

  const auto* head_bytes = static_cast<const std::uint8_t*>(head);
  const auto* body_bytes = static_cast<const std::uint8_t*>(body);
  const std::size_t size = head_size + body_size;
  const Stopwatch watch;
  std::size_t sent = 0;
  while (sent < size) {
    // Chunk [sent, sent + n) of head ++ body: a head part, then a body part.
    const std::size_t n = std::min(kChunk, size - sent);
    const std::size_t head_at = std::min(sent, head_size);
    const std::size_t from_head = std::min(n, head_size - head_at);
    NS_RETURN_IF_ERROR(conn.send_all(head_bytes + head_at, from_head,
                                     body_bytes + (sent - head_at), n - from_head));
    sent += n;
    // Token bucket: the first `sent` bytes should not complete before
    // sent / bandwidth seconds have elapsed since the transfer started.
    const double due = static_cast<double>(sent) / shape.bandwidth_Bps;
    const double ahead = due - watch.elapsed();
    if (ahead > 0) sleep_seconds(ahead);
  }
  return ok_status();
}

}  // namespace ns::net
