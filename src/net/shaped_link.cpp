#include "net/shaped_link.hpp"

#include <algorithm>

#include "common/clock.hpp"

namespace ns::net {

namespace {
constexpr std::size_t kChunk = 64 * 1024;
}

Status shaped_send(TcpConnection& conn, const void* data, std::size_t size,
                   const LinkShape& shape) {
  if (shape.is_unshaped()) {
    return conn.send_all(data, size);
  }
  if (shape.latency_s > 0) {
    sleep_seconds(shape.latency_s);
  }
  const bool paced = shape.bandwidth_Bps < std::numeric_limits<double>::infinity() &&
                     shape.bandwidth_Bps > 0;
  if (!paced) {
    return conn.send_all(data, size);
  }

  const auto* bytes = static_cast<const std::uint8_t*>(data);
  const Stopwatch watch;
  std::size_t sent = 0;
  while (sent < size) {
    const std::size_t n = std::min(kChunk, size - sent);
    NS_RETURN_IF_ERROR(conn.send_all(bytes + sent, n));
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
