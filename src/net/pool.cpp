#include "net/pool.hpp"

#include <errno.h>
#include <sys/socket.h>

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <optional>

#include "common/clock.hpp"
#include "common/memgov.hpp"
#include "common/metrics.hpp"
#include "net/fault.hpp"
#include "serial/frame.hpp"

namespace ns::net {

namespace {

/// Reply frames that can be demultiplexed carry the request id as their
/// first encoded field (u64 little-endian) — SolveResult, CancelAck,
/// ProbeReply and TransferAck all do.
std::uint64_t peek_request_id(const serial::Bytes& payload) {
  if (payload.size() < 8) return 0;
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < 8; ++i) id |= static_cast<std::uint64_t>(payload[i]) << (8 * i);
  return id;
}

/// Mid-frame silence longer than this poisons a channel. Legitimate gaps
/// inside one frame are pacing gaps (≤ 64 KiB / bandwidth, milliseconds on
/// the shaped profiles) — compute time happens *before* a reply frame
/// starts, never in the middle of one. A stall fault is exactly mid-frame
/// silence, and one second bounds how long it can poison a shared channel.
constexpr double kMidFrameProgressTimeout = 1.0;

/// Idle connections older than this are dropped at lease/release time. Kept
/// comfortably below the server/agent reactor idle timeout (10 s) so the
/// client discards before the peer does.
constexpr double kIdleTimeoutS = 2.5;

/// Idle connections kept per endpoint beyond which release() discards.
constexpr std::size_t kMaxIdlePerEndpoint = 8;

/// A cached idle connection is reusable only if it is silent and open: a
/// pending EOF means the peer's idle sweep closed it while it sat in the
/// pool, and pending *bytes* mean a previous leaseholder left part of a
/// reply in flight (it should have been discarded, but a racing late frame
/// can still land after release). Either way, reuse would hand the next
/// caller a broken stream — drop it.
bool idle_conn_usable(const TcpConnection& conn) {
  std::uint8_t byte = 0;
  const ssize_t n = ::recv(conn.native_handle(), &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n == 0) return false;                                  // peer closed
  if (n > 0) return false;                                   // stray bytes
  return errno == EAGAIN || errno == EWOULDBLOCK;            // silent + open
}

}  // namespace

// ---- PooledConn ----

PooledConn::~PooledConn() { discard(); }

PooledConn& PooledConn::operator=(PooledConn&& other) noexcept {
  if (this != &other) {
    discard();
    pool_ = std::exchange(other.pool_, nullptr);
    conn_ = std::move(other.conn_);
    key_ = std::move(other.key_);
    reused_ = other.reused_;
  }
  return *this;
}

void PooledConn::release() {
  if (pool_ != nullptr && conn_.valid()) {
    pool_->give_back(key_, std::move(conn_));
  }
  pool_ = nullptr;
  conn_.close();
}

void PooledConn::discard() {
  if (pool_ != nullptr && conn_.valid()) {
    metrics::counter("net.pool.discarded_total").inc();
  }
  pool_ = nullptr;
  conn_.close();
}

// ---- ConnectionPool ----

ConnectionPool& ConnectionPool::instance() {
  // The pool object is deliberately leaked (threads of leaked channels may
  // outlive static destructors), but its *contents* are reaped at exit:
  // destroying the channels joins their reader threads, so a process that
  // never redialed a poisoned endpoint doesn't exit with unjoined threads.
  static ConnectionPool* pool = new ConnectionPool();
  static const int reap_at_exit = std::atexit([] { instance().clear(); });
  (void)reap_at_exit;
  return *pool;
}

Status ConnectionPool::check_busy_window(const std::string& key) {
  std::lock_guard lock(mu_);
  auto it = busy_until_.find(key);
  if (it == busy_until_.end()) return ok_status();
  if (now_seconds() >= it->second) {
    busy_until_.erase(it);
    return ok_status();
  }
  metrics::counter("net.pool.busy_fastfail_total").inc();
  // Retryable like an application-level overload shed: the caller's backoff
  // loop absorbs it, and — same as kServerOverloaded from the admission
  // queue — it must never be failure-reported against a healthy server.
  return make_error(ErrorCode::kServerOverloaded, "endpoint in transport busy window");
}

void ConnectionPool::note_busy(const Endpoint& remote, double retry_after_s) {
  metrics::counter("net.pool.busy_noted_total").inc();
  std::lock_guard lock(mu_);
  auto& until = busy_until_[remote.to_string()];
  until = std::max(until, now_seconds() + std::max(0.0, retry_after_s));
}

Result<PooledConn> ConnectionPool::lease(const Endpoint& remote, double dial_timeout_s) {
  // The pool is a dial cache: an armed connect fault fires whether or not a
  // warm connection exists, so chaos scripts see identical failure surfaces.
  if (FaultInjector::instance().armed()) {
    NS_RETURN_IF_ERROR(FaultInjector::instance().on_connect(remote));
  }

  // Bound once: every agent exchange leases, and a lookup would lock under mu_.
  // A steady-state lease misses too, when another thread holds the only
  // idle connection to `remote`.
  static auto& hits_total = metrics::counter("net.pool.hits_total");
  static auto& misses_total = metrics::counter("net.pool.misses_total");
  const std::string key = remote.to_string();
  NS_RETURN_IF_ERROR(check_busy_window(key));
  {
    std::lock_guard lock(mu_);
    auto it = idle_.find(key);
    if (it != idle_.end()) {
      const double now = now_seconds();
      auto& dq = it->second;
      while (!dq.empty()) {
        IdleConn cand = std::move(dq.front());
        dq.pop_front();
        if (now - cand.since > kIdleTimeoutS) continue;  // stale, drop
        if (!idle_conn_usable(cand.conn)) continue;     // peer closed / dirty stream
        PooledConn lease;
        lease.pool_ = this;
        lease.conn_ = std::move(cand.conn);
        lease.key_ = key;
        lease.reused_ = true;
        hits_total.inc();
        return lease;
      }
      idle_.erase(it);
    }
  }

  misses_total.inc();
  // on_connect already consulted above; dial raw (connect() would roll the
  // fault a second time for one logical dial).
  auto conn = TcpConnection::connect_raw(remote, dial_timeout_s);
  if (!conn.ok()) return conn.error();
  PooledConn lease;
  lease.pool_ = this;
  lease.conn_ = std::move(conn.value());
  lease.key_ = key;
  lease.reused_ = false;
  return lease;
}

void ConnectionPool::give_back(const std::string& key, TcpConnection conn) {
  std::lock_guard lock(mu_);
  auto& dq = idle_[key];
  const double now = now_seconds();
  while (!dq.empty() &&
         (dq.size() >= kMaxIdlePerEndpoint || now - dq.front().since > kIdleTimeoutS)) {
    dq.pop_front();
  }
  dq.push_back(IdleConn{std::move(conn), now});
}

Result<MuxChannelPtr> ConnectionPool::channel(const Endpoint& remote, double dial_timeout_s) {
  if (FaultInjector::instance().armed()) {
    NS_RETURN_IF_ERROR(FaultInjector::instance().on_connect(remote));
  }
  const std::string key = remote.to_string();
  NS_RETURN_IF_ERROR(check_busy_window(key));
  {
    std::lock_guard lock(mu_);
    auto it = channels_.find(key);
    if (it != channels_.end()) {
      if (it->second->healthy()) return it->second;
      channels_.erase(it);  // poisoned: evict, redial below
      metrics::counter("net.mux.evicted_total").inc();
    }
  }
  auto conn = TcpConnection::connect_raw(remote, dial_timeout_s);
  if (!conn.ok()) return conn.error();
  auto channel = MuxChannelPtr(new MuxChannel(std::move(conn.value()), remote));
  std::lock_guard lock(mu_);
  auto it = channels_.find(key);
  if (it != channels_.end() && it->second->healthy()) return it->second;
  channels_[key] = channel;
  return channel;
}

void ConnectionPool::evict(const Endpoint& remote) {
  std::lock_guard lock(mu_);
  idle_.erase(remote.to_string());
  channels_.erase(remote.to_string());
  busy_until_.erase(remote.to_string());
}

void ConnectionPool::clear() {
  std::lock_guard lock(mu_);
  idle_.clear();
  channels_.clear();
  busy_until_.clear();
}

std::size_t ConnectionPool::idle_count() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& [key, dq] : idle_) n += dq.size();
  return n;
}

// ---- MuxChannel ----

MuxChannel::MuxChannel(TcpConnection conn, Endpoint remote)
    : conn_(std::move(conn)), remote_(std::move(remote)) {
  reader_ = std::thread([this] { reader_loop(); });
}

MuxChannel::~MuxChannel() {
  {
    std::lock_guard lock(mu_);
    dead_ = true;
  }
  conn_.shutdown_both();
  if (reader_.joinable()) reader_.join();
}

bool MuxChannel::healthy() const {
  std::lock_guard lock(mu_);
  return !dead_;
}

void MuxChannel::poison(const Error& why) {
  std::map<std::pair<std::uint64_t, std::uint16_t>, MuxCompletion*> orphans;
  {
    std::lock_guard lock(mu_);
    if (dead_) return;
    dead_ = true;
    death_ = why;
    orphans.swap(pending_);
  }
  // Wake the reader (and fail its current read) without freeing the fd: a
  // concurrent reader must never race a recycled descriptor number.
  conn_.shutdown_both();
  metrics::counter("net.mux.poisoned_total").inc();
  for (const auto& [key, done] : orphans) done->complete(why);
}

void MuxChannel::start(std::uint16_t request_type, const serial::Payload& payload,
                       std::uint16_t reply_type, std::uint64_t request_id,
                       MuxCompletion* done, const LinkShape& shape) {
  {
    std::unique_lock lock(mu_);
    if (dead_) {
      lock.unlock();
      if (done != nullptr) done->complete(death_);  // death_ is final once dead_ is set
      return;
    }
    if (done != nullptr) pending_[std::make_pair(request_id, reply_type)] = done;
  }

  Status sent = ok_status();
  {
    // Serialize senders: frames must hit the stream whole. Fault plans and
    // shaping apply exactly as on a dedicated connection.
    std::lock_guard lock(send_mu_);
    sent = send_message(conn_, request_type, payload, shape);
  }
  // A send-side failure (injected reset, peer gone) leaves the stream in an
  // unknown state: poison so every sharer redials. That also fails `done`.
  if (!sent.ok()) poison(sent.error());
}

bool MuxChannel::withdraw(std::uint64_t request_id, std::uint16_t reply_type,
                          MuxCompletion* done) {
  std::lock_guard lock(mu_);
  auto it = pending_.find(std::make_pair(request_id, reply_type));
  if (it == pending_.end() || it->second != done) return false;
  pending_.erase(it);
  return true;
}

Result<Message> MuxChannel::call(std::uint16_t request_type, const serial::Payload& payload,
                                 std::uint16_t reply_type, std::uint64_t request_id,
                                 double timeout_s, const LinkShape& shape) {
  // The caller's own condition variable: a reply wakes exactly this caller.
  struct Waiter final : MuxCompletion {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<Result<Message>> reply;

    void complete(Result<Message> r) override {
      // Notify under the lock: the caller may return (destroying this
      // object) the moment it observes the reply.
      std::lock_guard lock(mu);
      reply.emplace(std::move(r));
      cv.notify_one();
    }
  } waiter;
  start(request_type, payload, reply_type, request_id, &waiter, shape);
  std::unique_lock lock(waiter.mu);
  const auto has_reply = [&] { return waiter.reply.has_value(); };
  if (!waiter.cv.wait_for(lock, std::chrono::duration<double>(timeout_s), has_reply)) {
    lock.unlock();
    // Timed out: the reply may still arrive; the reader will read and
    // discard it whole, so the stream stays framed and the channel usable.
    if (withdraw(request_id, reply_type, &waiter)) {
      return make_error(ErrorCode::kTimeout, "mux call timed out");
    }
    lock.lock();  // the completion is running right now: take its result
    waiter.cv.wait(lock, has_reply);
  }
  return std::move(*waiter.reply);
}

void MuxChannel::reader_loop() {
  // poison() and the destructor shut the socket down, so a dead channel's
  // next read fails and ends this loop.
  for (;;) {
    auto readable = conn_.wait_readable(0.25);
    if (!readable.ok()) {
      if (readable.error().code == ErrorCode::kTimeout) continue;
      poison(make_error(ErrorCode::kConnectionClosed, "mux channel closed"));
      return;
    }
    // A frame has started: finish it with a progress-bounded read. The
    // overall frame may take arbitrarily long on a paced link; only
    // *silence* mid-frame is fatal.
    std::uint8_t header_bytes[serial::kHeaderSize];
    auto hdr_read = conn_.recv_all(header_bytes, sizeof(header_bytes),
                                   kMidFrameProgressTimeout);
    if (!hdr_read.ok()) {
      poison(hdr_read.error());
      return;
    }
    auto header = serial::decode_header(header_bytes);
    if (!header.ok()) {
      poison(header.error());
      return;
    }
    if (header.value().length > kClientMaxFrameBytes) {
      // Client-role frame cap: a shared mux socket buffers replies for many
      // concurrent callers, so one hostile length claim would charge them
      // all. Reject before allocating and poison — the oversized body is
      // still in the stream, so the channel cannot be re-framed.
      metrics::counter("net.guard.oversized_total").inc();
      poison(make_error(ErrorCode::kProtocol, "frame exceeds client payload cap"));
      return;
    }
    Message msg;
    msg.type = header.value().type;
    try {
      mem::alloc_trip("net.mux_read");
      msg.payload.reserve(header.value().length);
    } catch (const std::bad_alloc&) {
      // Allocation pressure is retryable overload, not peer failure: pending
      // callers back off and redial instead of tearing the process down.
      metrics::counter("mem.bad_alloc_total").inc();
      poison(make_error(ErrorCode::kServerOverloaded,
                        "allocation failed buffering mux frame"));
      return;
    }
    if (auto body = recv_body(conn_, header.value(), msg.payload,
                              [] { return kMidFrameProgressTimeout; });
        !body.ok()) {
      poison(body.error());
      return;
    }

    if (msg.type == kTransportBusyType) {
      // Accept-governor shed, delivered just before the peer closed on us:
      // note the busy window so redials back off, and fail every pending
      // call retryably (overload, not server failure).
      ConnectionPool::instance().note_busy(remote_,
                                           decode_busy_retry_after(msg.payload));
      poison(make_error(ErrorCode::kServerOverloaded, "transport busy (accept shed)"));
      return;
    }
    std::unique_lock lock(mu_);
    auto node = pending_.extract(std::make_pair(peek_request_id(msg.payload), msg.type));
    lock.unlock();
    // No completion (its caller gave up, or none was registered): the frame
    // was consumed whole and dropped — nothing leaks into a later reply.
    if (!node.empty()) node.mapped()->complete(std::move(msg));
  }
}

// ---- helpers ----

Result<Message> pool_round_trip(const Endpoint& remote, std::uint16_t type,
                                const serial::Payload& payload, double timeout_s,
                                double dial_timeout_s, const LinkShape& shape) {
  auto lease = ConnectionPool::instance().lease(remote, dial_timeout_s);
  if (!lease.ok()) return lease.error();
  NS_RETURN_IF_ERROR(send_message(lease.value().conn(), type, payload, shape));
  auto reply = recv_message(lease.value().conn(), timeout_s, kClientMaxFrameBytes);
  if (!reply.ok()) return reply.error();  // lease destructor discards
  if (reply.value().type == kTransportBusyType) {
    // The peer's accept governor shed this dial. Honor the retry-after as a
    // busy window (subsequent dials fail fast instead of re-shedding) and
    // surface a retryable overload to the caller's backoff loop.
    ConnectionPool::instance().note_busy(
        remote, decode_busy_retry_after(reply.value().payload));
    return make_error(ErrorCode::kServerOverloaded, "transport busy (accept shed)");
  }
  lease.value().release();
  return reply;
}

Status pool_post(const Endpoint& remote, std::uint16_t type, const serial::Payload& payload,
                 double dial_timeout_s, const LinkShape& shape) {
  auto lease = ConnectionPool::instance().lease(remote, dial_timeout_s);
  if (!lease.ok()) return lease.error();
  NS_RETURN_IF_ERROR(send_message(lease.value().conn(), type, payload, shape));
  lease.value().release();
  return ok_status();
}

}  // namespace ns::net
