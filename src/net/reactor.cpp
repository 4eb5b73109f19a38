#include "net/reactor.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/clock.hpp"
#include "common/memgov.hpp"
#include "common/metrics.hpp"
#include "net/fault.hpp"
#include "serial/crc32.hpp"

namespace ns::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::size_t kMaxReadPerEvent = 1024 * 1024;
constexpr std::size_t kShapeChunk = 64 * 1024;  // matches shaped_send pacing
constexpr int kMaxIov = 8;

void set_nodelay_fd(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Endpoint endpoint_from(const sockaddr_in& addr) {
  char buf[INET_ADDRSTRLEN] = {};
  ::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf));
  return Endpoint{buf, ntohs(addr.sin_port)};
}

}  // namespace

// ---- ReactorConn ----

Status ReactorConn::send(std::uint16_t type, serial::Payload payload, const LinkShape& shape) {
  if (closing_.load(std::memory_order_acquire)) {
    return make_error(ErrorCode::kConnectionClosed, "reactor connection closed");
  }

  // What the queued chunks point into: the header and the payload, whose
  // owner keeps its borrowed arrays alive, or a whole faulted frame.
  struct OutFrame {
    std::uint8_t header[serial::kHeaderSize];
    serial::Payload bytes;
  };
  auto frame = std::make_shared<OutFrame>();
  std::vector<Chunk> chunks;
  const auto add_chunk = [&chunks, &frame](const std::uint8_t* data, std::size_t size) {
    chunks.push_back(Chunk{data, size, 0, 0.0, frame});
  };

  // Fault parity with net::send_message: same armed() fast path, same
  // peer-then-local plan lookup, same per-mode failure surface. A plan
  // edits the frame's bytes, so it works on one flattened copy.
  bool faulted = false;
  bool close_after = false;
  Status result = ok_status();
  if (FaultInjector::instance().armed()) {
    serial::Bytes faulted_frame = serial::build_frame(type, payload);
    auto& injector = FaultInjector::instance();
    auto fault = injector.on_send(peer_, type, faulted_frame.data(), faulted_frame.size());
    if (!fault) {
      fault = injector.on_send(local_, type, faulted_frame.data(), faulted_frame.size());
    }
    if (fault && *fault != FaultMode::kConnectRefused) {  // connect-only, never for sends
      faulted = true;
      switch (*fault) {
        case FaultMode::kReset:
        case FaultMode::kPartition:
          // Half a frame then a hard close, exactly like a mid-flight RST.
          faulted_frame.resize(faulted_frame.size() / 2);
          close_after = true;
          result = make_error(ErrorCode::kConnectionClosed,
                              std::string("injected ") +
                                  std::string(fault_mode_name(*fault)) + " on send");
          break;
        case FaultMode::kStall:
          // Partial frame then silence; the peer's read timeout surfaces it.
          faulted_frame.resize(faulted_frame.size() > 1 ? faulted_frame.size() / 2 : 1);
          break;
        case FaultMode::kCorrupt:
          // Bytes already flipped in place; deliver the damaged frame whole
          // and let the CRC catch it on the far side.
          break;
        case FaultMode::kConnectRefused:
          break;  // filtered above
      }
      frame->bytes = std::move(faulted_frame);
    }
  }
  if (!faulted) {
    // Normal path: the header and each payload piece stay separate chunks;
    // the write path gathers them into one sendmsg (no frame assembly copy).
    serial::encode_frame_header(type, payload, frame->header);
    frame->bytes = std::move(payload);
    add_chunk(frame->header, serial::kHeaderSize);
  }
  frame->bytes.for_each_piece(add_chunk);

  std::size_t total = 0;
  for (const auto& c : chunks) total += c.size;

  bool queued_behind = false;
  {
    std::lock_guard lock(wr_mu_);
    if (fd_ < 0 || closing_.load(std::memory_order_relaxed)) {
      return make_error(ErrorCode::kConnectionClosed, "reactor connection closed");
    }

    // Per-connection buffered-byte budget: a peer that stops reading while
    // handlers keep replying would otherwise grow wrq_ without bound. Drop
    // the connection instead — the queued replies are undeliverable anyway.
    if (wr_bytes_ + total > reactor_->conn_budget_) {
      reactor_->metrics_.conn_overflow.inc();
      reactor_->track_buffered(*this, -static_cast<std::ptrdiff_t>(wr_bytes_));
      wrq_.clear();
      wr_bytes_ = 0;
      closing_.store(true, std::memory_order_release);
      reactor_->notify_dirty(shared_from_this());
      return make_error(ErrorCode::kConnectionClosed,
                        "peer write budget exceeded (slow reader)");
    }
    if (wrq_.empty()) last_write_progress_ = now_seconds();

    if (!shape.is_unshaped()) {
      // Token-bucket pacing computed at enqueue: chunk k may hit the wire
      // once latency + (bytes before k)/bandwidth have elapsed, serialized
      // after any transfer already pacing on this connection (pace_until_).
      const double now = now_seconds();
      const double base = std::max(now, pace_until_);
      const bool paced = shape.bandwidth_Bps < std::numeric_limits<double>::infinity() &&
                         shape.bandwidth_Bps > 0;
      // Subdivide large chunks so pacing is smooth (shaped_send uses 64 KiB).
      std::vector<Chunk> paced_chunks;
      for (const auto& c : chunks) {
        for (std::size_t off = 0; off < c.size; off += kShapeChunk) {
          paced_chunks.push_back(
              Chunk{c.data + off, std::min(kShapeChunk, c.size - off), 0, 0.0, c.keep});
        }
      }
      std::size_t sent_before = 0;
      for (auto& c : paced_chunks) {
        c.not_before = base + shape.latency_s +
                       (paced ? static_cast<double>(sent_before) / shape.bandwidth_Bps : 0.0);
        sent_before += c.size;
        wrq_.push_back(std::move(c));
      }
      pace_until_ = base + shape.latency_s +
                    (paced ? static_cast<double>(total) / shape.bandwidth_Bps : 0.0);
      wr_bytes_ += total;
      reactor_->track_buffered(*this, static_cast<std::ptrdiff_t>(total));
      queued_behind = true;
    } else if (wrq_.empty() && !close_after) {
      // Fast path: the queue is idle, write straight from the handler thread.
      iovec iov[kMaxIov];
      int iovcnt = 0;
      std::size_t batched = 0;
      for (const auto& c : chunks) {
        iov[iovcnt].iov_base = const_cast<std::uint8_t*>(c.data);
        iov[iovcnt].iov_len = c.size;
        batched += c.size;
        if (++iovcnt == kMaxIov) break;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
      std::size_t written = 0;
      while (written < batched) {
        const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          return make_error(ErrorCode::kConnectionClosed,
                            std::string("sendmsg(): ") + ::strerror(errno));
        }
        written += static_cast<std::size_t>(n);
        // Advance the iov past what was written.
        std::size_t left = static_cast<std::size_t>(n);
        while (left > 0 && msg.msg_iovlen > 0) {
          if (left >= msg.msg_iov[0].iov_len) {
            left -= msg.msg_iov[0].iov_len;
            ++msg.msg_iov;
            --msg.msg_iovlen;
          } else {
            msg.msg_iov[0].iov_base = static_cast<std::uint8_t*>(msg.msg_iov[0].iov_base) + left;
            msg.msg_iov[0].iov_len -= left;
            left = 0;
          }
        }
      }
      if (written < total) {
        // Socket buffer full, or more chunks than one sendmsg takes: queue
        // the remainder for the reactor.
        std::size_t skip = written;
        for (auto& c : chunks) {
          if (skip >= c.size) {
            skip -= c.size;
            continue;
          }
          c.offset = skip;
          skip = 0;
          wrq_.push_back(std::move(c));
        }
        wr_bytes_ += total - written;
        reactor_->track_buffered(*this, static_cast<std::ptrdiff_t>(total - written));
        queued_behind = true;
      }
    } else {
      for (auto& c : chunks) wrq_.push_back(std::move(c));
      wr_bytes_ += total;
      reactor_->track_buffered(*this, static_cast<std::ptrdiff_t>(total));
      queued_behind = true;
    }
    if (close_after) closing_.store(true, std::memory_order_release);
  }
  last_activity_.store(now_seconds(), std::memory_order_relaxed);
  if (queued_behind || close_after) reactor_->notify_dirty(shared_from_this());
  return result;
}

void ReactorConn::close() {
  closing_.store(true, std::memory_order_release);
  reactor_->notify_dirty(shared_from_this());
}

// ---- Reactor ----

Reactor::Metrics::Metrics()
    : accept_errors(metrics::counter("net.guard.accept_errors_total")),
      accept_shed(metrics::counter("net.guard.accept_shed_total")),
      evicted(metrics::counter("net.guard.evicted_total")),
      oversized(metrics::counter("net.guard.oversized_total")),
      conn_overflow(metrics::counter("net.guard.conn_overflow_total")),
      global_overflow(metrics::counter("net.guard.global_overflow_total")),
      progress_kill(metrics::counter("net.guard.progress_kill_total")),
      bad_alloc(metrics::counter("mem.bad_alloc_total")),
      buffered_bytes(metrics::gauge("net.guard.buffered_bytes")),
      connections(metrics::gauge("net.guard.connections")) {}

Status Reactor::start(TcpListener listener, MessageHandler handler, ReactorConfig config) {
  if (running_.load()) return make_error(ErrorCode::kInternal, "reactor already running");
  if (!listener.valid()) return make_error(ErrorCode::kInternal, "reactor needs a bound listener");

  epoll_fd_ = FdHandle(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) {
    return make_error(ErrorCode::kInternal, std::string("epoll_create1(): ") + ::strerror(errno));
  }
  wake_fd_ = FdHandle(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!wake_fd_.valid()) {
    return make_error(ErrorCode::kInternal, std::string("eventfd(): ") + ::strerror(errno));
  }

  listener_ = std::move(listener);
  handler_ = std::move(handler);
  config_ = config;
  stopping_.store(false);
  total_buffered_.store(0, std::memory_order_relaxed);
  accept_paused_until_ = 0.0;

  // The per-connection budget must at least fit one maximal frame plus read
  // slack, or a legitimate max-size frame could never assemble.
  conn_budget_ = std::max(config_.guard.max_conn_buffer_bytes,
                          config_.guard.max_frame_bytes + serial::kHeaderSize + 2 * kReadChunk);
  // Guard sweeps ride the idle-sweep cadence (1 s) unless the progress
  // deadline is sub-second, in which case kills must land promptly.
  sweep_period_s_ = 1.0;
  if (config_.guard.frame_progress_timeout_s > 0.0) {
    sweep_period_s_ = std::clamp(config_.guard.frame_progress_timeout_s / 4.0, 0.05, 1.0);
  }
  // EMFILE insurance: one descriptor we can momentarily give back to accept
  // (then immediately close) a dial the fd table has no room for.
  reserve_fd_ = FdHandle(::open("/dev/null", O_RDONLY | O_CLOEXEC));

  // The accept drain loop relies on accept4 returning EAGAIN when the
  // pending queue empties; a blocking listener would wedge the loop thread
  // inside the kernel instead.
  const int lflags = ::fcntl(listener_.native_handle(), F_GETFL, 0);
  if (lflags < 0 ||
      ::fcntl(listener_.native_handle(), F_SETFL, lflags | O_NONBLOCK) != 0) {
    return make_error(ErrorCode::kInternal,
                      std::string("fcntl(listener, O_NONBLOCK): ") + ::strerror(errno));
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // nullptr = listener
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, listener_.native_handle(), &ev) != 0) {
    return make_error(ErrorCode::kInternal, std::string("epoll_ctl(listener): ") + ::strerror(errno));
  }
  epoll_event wev{};
  wev.events = EPOLLIN;
  wev.data.ptr = const_cast<Reactor*>(static_cast<const Reactor*>(this));  // self = wakeup
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &wev) != 0) {
    return make_error(ErrorCode::kInternal, std::string("epoll_ctl(wake): ") + ::strerror(errno));
  }

  if (!config_.inline_handlers) pool_.start(config_.workers);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { loop(); });
  return ok_status();
}

void Reactor::stop() {
  if (!running_.exchange(false)) {
    pool_.stop();
    return;
  }
  stopping_.store(true, std::memory_order_release);
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Join workers after the loop: in-flight handlers may still be replying;
  // their sends fail fast on the closed connections.
  pool_.stop();
  {
    std::lock_guard lock(conns_mu_);
    conns_.clear();
  }
  epoll_fd_.reset();
  wake_fd_.reset();
  reserve_fd_.reset();
}

void Reactor::stop_accepting() {
  close_listener_.store(true, std::memory_order_release);
  wake();
}

std::size_t Reactor::connection_count() const {
  std::lock_guard lock(conns_mu_);
  return conns_.size();
}

void Reactor::wake() {
  if (!wake_fd_.valid()) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_.get(), &one, sizeof(one));
}

void Reactor::notify_dirty(const ReactorConnPtr& conn) {
  {
    std::lock_guard lock(dirty_mu_);
    dirty_.push_back(conn);
  }
  wake();
}

void Reactor::loop() {
  double pace_due = 0.0;
  double last_sweep = now_seconds();
  std::vector<epoll_event> events(64);

  while (!stopping_.load(std::memory_order_acquire)) {
    const double now = now_seconds();
    int timeout_ms = std::min(250, static_cast<int>(sweep_period_s_ * 1000.0) + 1);
    if (pace_due > 0.0) {
      const double wait = std::max(0.0, pace_due - now);
      timeout_ms = std::min(timeout_ms, static_cast<int>(wait * 1000.0) + 1);
    }
    const int n = ::epoll_wait(epoll_fd_.get(), events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0 && errno != EINTR) break;

    // Re-arm a listener parked after a persistent accept error (the pause
    // is what keeps a broken listener from busy-spinning the loop).
    if (accept_paused_until_ > 0.0 && now_seconds() >= accept_paused_until_ &&
        listener_.valid()) {
      accept_paused_until_ = 0.0;
      epoll_event lev{};
      lev.events = EPOLLIN;
      lev.data.ptr = nullptr;
      ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, listener_.native_handle(), &lev);
    }

    if (close_listener_.exchange(false) && listener_.valid()) {
      // Dials the kernel already completed sit in the accept backlog, and
      // closing the listener would reset them. Adopt them first —
      // stop_accepting means "refuse new dials", not "drop handshakes that
      // already finished".
      handle_accept();
      ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, listener_.native_handle(), nullptr);
      listener_.close();
      // A stale listener event in this batch falls through handle_accept's
      // failing accept4 harmlessly.
    }

    for (int i = 0; i < n; ++i) {
      void* tag = events[static_cast<std::size_t>(i)].data.ptr;
      const std::uint32_t ev = events[static_cast<std::size_t>(i)].events;
      if (tag == nullptr) {
        handle_accept();
        continue;
      }
      if (tag == this) {
        std::uint64_t drained = 0;
        while (::read(wake_fd_.get(), &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto* raw = static_cast<ReactorConn*>(tag);
      ReactorConnPtr conn;
      {
        std::lock_guard lock(conns_mu_);
        for (const auto& c : conns_) {
          if (c.get() == raw) {
            conn = c;
            break;
          }
        }
      }
      if (!conn) continue;  // already closed this iteration
      if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
        finish_close(conn);
        continue;
      }
      if ((ev & EPOLLIN) != 0) handle_readable(conn);
      if ((ev & EPOLLOUT) != 0) {
        const double due = flush_writes(conn);
        if (due > 0.0) pace_due = pace_due > 0.0 ? std::min(pace_due, due) : due;
      }
    }

    // Dirty connections: handler threads enqueued writes or closes.
    std::vector<std::weak_ptr<ReactorConn>> dirty;
    {
      std::lock_guard lock(dirty_mu_);
      dirty.swap(dirty_);
    }
    for (auto& weak : dirty) {
      if (auto conn = weak.lock()) {
        const double due = flush_writes(conn);
        if (due > 0.0) pace_due = pace_due > 0.0 ? std::min(pace_due, due) : due;
      }
    }

    // Paced (shaped) writes whose release time has arrived.
    if (pace_due > 0.0 && now_seconds() >= pace_due) {
      pace_due = 0.0;
      std::vector<ReactorConnPtr> snapshot;
      {
        std::lock_guard lock(conns_mu_);
        snapshot = conns_;
      }
      for (const auto& conn : snapshot) {
        const double due = flush_writes(conn);
        if (due > 0.0) pace_due = pace_due > 0.0 ? std::min(pace_due, due) : due;
      }
    }

    const double sweep_now = now_seconds();
    if (sweep_now - last_sweep >= sweep_period_s_) {
      last_sweep = sweep_now;
      sweep_guard(sweep_now);
      sweep_idle(sweep_now);
    }
  }

  // Shutdown: close the listener first (frees the port for restarts), then
  // every connection.
  listener_.close();
  std::vector<ReactorConnPtr> snapshot;
  {
    std::lock_guard lock(conns_mu_);
    snapshot = conns_;
  }
  for (const auto& conn : snapshot) finish_close(conn);
}

void Reactor::handle_accept() {
  if (!listener_.valid()) return;
  int emfile_shed_budget = 64;  // bound fd-pressure shedding per wakeup
  for (;;) {
    const int fd = ::accept4(listener_.native_handle(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK) return;  // backlog drained
      if (err == EINTR) continue;
      metrics_.accept_errors.inc();
      // The dialer gave up between SYN and accept — their problem, next.
      if (err == ECONNABORTED) continue;
      if (err == EMFILE || err == ENFILE) {
        // fd table exhausted. Without intervention the pending dial sits in
        // the backlog and the level-triggered listener event fires forever.
        // Give the reserve descriptor back for a moment, accept the dial,
        // and close it immediately: the peer sees a shed, the loop thread
        // never wedges or spins.
        reserve_fd_.reset();
        const int victim =
            ::accept4(listener_.native_handle(), nullptr, nullptr, SOCK_CLOEXEC);
        if (victim >= 0) {
          ::close(victim);
          metrics_.accept_shed.inc();
        }
        reserve_fd_ = FdHandle(::open("/dev/null", O_RDONLY | O_CLOEXEC));
        if (victim < 0 || --emfile_shed_budget <= 0) return;
        continue;
      }
      // Unclassified (listener broken, ENOBUFS storm, ...): park the
      // listener for a cooldown instead of letting the still-readable event
      // busy-spin the loop; loop() re-arms it.
      ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, listener_.native_handle(), nullptr);
      accept_paused_until_ = now_seconds() + 0.1;
      return;
    }

    // Accept governor: at the connection cap, evict the least-recently
    // active idle connection to make room (keep-alive peers are cheap to
    // re-dial); if nothing is evictable, or buffer budgets are already hot,
    // shed the dial with a transport BUSY so the peer backs off.
    bool over_cap = connection_count() >= config_.guard.max_connections;
    if (over_cap && evict_lru_idle()) over_cap = false;
    const std::size_t hot_mark =
        config_.guard.max_total_buffer_bytes - config_.guard.max_total_buffer_bytes / 8;
    if (over_cap || total_buffered_.load(std::memory_order_relaxed) >= hot_mark) {
      shed_accepted_fd(fd);
      continue;
    }
    set_nodelay_fd(fd);

    auto conn = ReactorConnPtr(new ReactorConn(this, fd));
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      conn->peer_ = endpoint_from(addr);
    }
    len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      conn->local_ = endpoint_from(addr);
    }
    conn->last_activity_.store(now_seconds(), std::memory_order_relaxed);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn.get();
    {
      std::lock_guard lock(conns_mu_);
      conns_.push_back(conn);
    }
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
      finish_close(conn);
    }
  }
}

void Reactor::handle_readable(const ReactorConnPtr& conn) {
  ReactorConn& c = *conn;
  if (c.closing_.load(std::memory_order_acquire)) return;
  // Process-global buffered-byte ceiling: shed the largest-buffered
  // connection(s) before buffering more. This connection may be the victim.
  if (total_buffered_.load(std::memory_order_relaxed) > config_.guard.max_total_buffer_bytes) {
    enforce_global_budget();
    if (c.closing_.load(std::memory_order_acquire)) return;
  }
  std::size_t read_total = 0;
  bool eof = false;
  while (read_total < kMaxReadPerEvent && !c.closing_.load(std::memory_order_acquire)) {
    // A direct frame's body lands in its payload, never past its end, so
    // the bytes behind it go to rdbuf_ once it is complete.
    std::uint8_t* dst;
    std::size_t want;
    if (c.direct_) {
      ReactorConn::DirectFrame& d = *c.direct_;
      if (d.msg.payload.size() == d.got) {
        // Zero-fill room no further ahead than what has already arrived
        // (and is charged), and at least one read chunk. The capacity is
        // reserved, so this never reallocates.
        const std::size_t ahead = std::clamp(d.got, kReadChunk, kMaxReadPerEvent);
        d.msg.payload.resize(std::min<std::size_t>(d.header.length, d.got + ahead));
      }
      dst = d.msg.payload.data() + d.got;
      want = d.msg.payload.size() - d.got;
    } else {
      if (!reserve_read_space(c)) {
        // Growing one connection's read buffer failed: shed that
        // connection, never the daemon. The loop thread must not unwind
        // through epoll.
        metrics_.bad_alloc.inc();
        eof = true;
        break;
      }
      dst = c.rdbuf_.data() + c.rd_end_;
      want = c.rdbuf_.size() - c.rd_end_;
    }
    want = std::min(want, kMaxReadPerEvent - read_total);
    const ssize_t n = ::recv(c.fd_, dst, want, 0);
    if (n > 0) {
      const auto got = static_cast<std::size_t>(n);
      read_total += got;
      track_buffered(c, static_cast<std::ptrdiff_t>(got));
      if (c.direct_) {
        // Fold the CRC in while the bytes are still in cache: a complete
        // frame dispatches with no second pass over its body.
        ReactorConn::DirectFrame& d = *c.direct_;
        d.crc = serial::crc32_update(d.crc, dst, got);
        d.got += got;
        if (d.got == d.header.length && !finish_direct(conn)) break;
      } else {
        c.rd_end_ += got;
        drain_frames(conn);
      }
      if (got < want) break;  // socket drained
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    eof = true;  // hard error: treat as peer gone
    break;
  }
  if (read_total > 0) c.last_activity_.store(now_seconds(), std::memory_order_relaxed);
  if (eof) finish_close(conn);
}

bool Reactor::reserve_read_space(ReactorConn& c) {
  if (c.rdbuf_.size() - c.rd_end_ >= kReadChunk) return true;
  // Compact: move the partial frame to the front instead of growing.
  if (c.rd_consumed_ > 0) {
    std::memmove(c.rdbuf_.data(), c.rdbuf_.data() + c.rd_consumed_, c.rd_end_ - c.rd_consumed_);
    c.rd_end_ -= c.rd_consumed_;
    c.rd_consumed_ = 0;
    if (c.rdbuf_.size() - c.rd_end_ >= kReadChunk) return true;
  }
  try {
    mem::alloc_trip("net.reactor_read");
    c.rdbuf_.resize(c.rd_end_ + kReadChunk);
  } catch (const std::bad_alloc&) {
    return false;
  }
  return true;
}

void Reactor::drain_frames(const ReactorConnPtr& conn) {
  ReactorConn& c = *conn;
  while (c.rd_end_ - c.rd_consumed_ >= serial::kHeaderSize) {
    const std::uint8_t* frame = c.rdbuf_.data() + c.rd_consumed_;
    auto header = serial::decode_header(frame);
    if (!header.ok()) {
      // Protocol violation: drop the connection, exactly like the old
      // blocking recv_message path.
      finish_close(conn);
      return;
    }
    if (header.value().length > config_.guard.max_frame_bytes) {
      // Role frame cap, enforced at header-decode time: the giant payload a
      // hostile header claims is rejected before a single byte of it is
      // buffered or allocated.
      metrics_.oversized.inc();
      finish_close(conn);
      return;
    }
    const std::size_t frame_len = serial::kHeaderSize + header.value().length;
    if (c.rd_end_ - c.rd_consumed_ < frame_len) {
      // Frame split across reads: a large one continues straight into its
      // payload; anything smaller accumulates here.
      if (header.value().length >= kDirectFrameBytes) start_direct(conn, header.value());
      break;
    }

    Message msg;
    msg.type = header.value().type;
    msg.payload.assign(frame + serial::kHeaderSize, frame + frame_len);
    c.rd_consumed_ += frame_len;
    track_buffered(c, -static_cast<std::ptrdiff_t>(frame_len));
    if (!serial::check_payload(header.value(), msg.payload).ok()) {
      finish_close(conn);
      return;
    }
    if (!dispatch(conn, std::move(msg))) return;
  }
  if (c.closing_.load(std::memory_order_acquire)) return;
  if (c.rd_consumed_ == c.rd_end_) c.rd_consumed_ = c.rd_end_ = 0;
  // Progress deadline bookkeeping: a trailing partial frame (accumulating
  // or direct) keeps (or starts) the clock; nothing pending clears it. The
  // start time is never refreshed by mere drip progress — that is what
  // defeats a slowloris.
  if (c.rd_end_ > c.rd_consumed_ || c.direct_) {
    if (c.frame_start_ == 0.0) c.frame_start_ = now_seconds();
  } else {
    c.frame_start_ = 0.0;
  }
}

void Reactor::start_direct(const ReactorConnPtr& conn, const serial::FrameHeader& header) {
  ReactorConn& c = *conn;
  ReactorConn::DirectFrame d;
  try {
    mem::alloc_trip("net.reactor_read");
    // Address space only: pages are touched as the body arrives, so the
    // frame holds no more memory than it has been charged for.
    d.msg.payload.reserve(header.length);
  } catch (const std::bad_alloc&) {
    metrics_.bad_alloc.inc();
    finish_close(conn);
    return;
  }
  // The body bytes already here move into the payload; they stay charged.
  const std::uint8_t* body = c.rdbuf_.data() + c.rd_consumed_ + serial::kHeaderSize;
  d.got = c.rd_end_ - c.rd_consumed_ - serial::kHeaderSize;
  d.msg.payload.assign(body, body + d.got);
  d.msg.type = header.type;
  d.header = header;
  d.crc = serial::crc32_update(serial::frame_crc_begin(header.type, header.length), body, d.got);
  c.rd_consumed_ = c.rd_end_;
  c.direct_ = std::move(d);
}

bool Reactor::finish_direct(const ReactorConnPtr& conn) {
  ReactorConn& c = *conn;
  ReactorConn::DirectFrame d = std::move(*c.direct_);
  c.direct_.reset();
  c.frame_start_ = 0.0;
  track_buffered(c, -static_cast<std::ptrdiff_t>(serial::kHeaderSize + d.got));
  if (!serial::check_frame_crc(d.header, d.crc).ok()) {
    finish_close(conn);
    return false;
  }
  return dispatch(conn, std::move(d.msg));
}

bool ReactorConn::idle() {
  if (active_handlers_.load(std::memory_order_acquire) > 0) return false;
  std::lock_guard lock(wr_mu_);
  return wrq_.empty();
}

ConnHold::ConnHold(ReactorConnPtr conn) : conn_(std::move(conn)) {
  if (conn_) conn_->active_handlers_.fetch_add(1, std::memory_order_acq_rel);
}

ConnHold::~ConnHold() {
  if (!conn_) return;
  conn_->last_activity_.store(now_seconds(), std::memory_order_relaxed);
  conn_->active_handlers_.fetch_sub(1, std::memory_order_acq_rel);
}

bool Reactor::dispatch(const ReactorConnPtr& conn, Message&& msg) {
  ConnHold hold(conn);
  if (config_.inline_handlers) {
    // Loop-thread dispatch for short non-blocking handlers: saves the
    // wake-a-worker and reply-wakeup context switches per request. The
    // send fast path still writes directly from here.
    if (handler_ && handler_(conn, std::move(msg))) return true;
    conn->close();
    return false;
  }
  // The task's copy of the hold is released once the handler has run, or
  // at once if the task is dropped.
  if (pool_.submit([this, conn, hold = std::move(hold), msg = std::move(msg)]() mutable {
        if (!handler_ || !handler_(conn, std::move(msg))) conn->close();
      })) {
    return true;
  }
  finish_close(conn);
  return false;
}

double Reactor::flush_writes(const ReactorConnPtr& conn) {
  bool closed_peer = false;
  double next_due = 0.0;
  bool need_epollout = false;
  {
    std::lock_guard lock(conn->wr_mu_);
    if (conn->fd_ < 0) return 0.0;
    const double now = now_seconds();
    while (!conn->wrq_.empty()) {
      if (conn->wrq_.front().not_before > now) {
        next_due = conn->wrq_.front().not_before;
        break;
      }
      iovec iov[kMaxIov];
      int iovcnt = 0;
      std::size_t batched = 0;
      for (const auto& c : conn->wrq_) {
        if (c.not_before > now) break;
        iov[iovcnt].iov_base = const_cast<std::uint8_t*>(c.data) + c.offset;
        iov[iovcnt].iov_len = c.size - c.offset;
        batched += iov[iovcnt].iov_len;
        if (++iovcnt == kMaxIov) break;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
      const ssize_t n = ::sendmsg(conn->fd_, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          need_epollout = true;
          break;
        }
        closed_peer = true;
        break;
      }
      if (n > 0) {
        conn->wr_bytes_ -= std::min(conn->wr_bytes_, static_cast<std::size_t>(n));
        track_buffered(*conn, -static_cast<std::ptrdiff_t>(n));
        conn->last_write_progress_ = now;
      }
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0 && !conn->wrq_.empty()) {
        auto& front = conn->wrq_.front();
        const std::size_t remain = front.size - front.offset;
        if (left >= remain) {
          left -= remain;
          conn->wrq_.pop_front();
        } else {
          front.offset += left;
          left = 0;
        }
      }
      if (static_cast<std::size_t>(n) < batched) {
        need_epollout = true;
        break;
      }
    }

    // Toggle EPOLLOUT to match whether the socket is what blocks us.
    if (need_epollout != conn->want_write_) {
      epoll_event ev{};
      ev.events = EPOLLIN | (need_epollout ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
      ev.data.ptr = conn.get();
      ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn->fd_, &ev);
      conn->want_write_ = need_epollout;
    }
  }
  if (closed_peer) {
    finish_close(conn);
    return 0.0;
  }
  if (conn->closing_.load(std::memory_order_acquire)) {
    bool drained;
    {
      std::lock_guard lock(conn->wr_mu_);
      drained = conn->wrq_.empty();
    }
    if (drained) finish_close(conn);
  }
  return next_due;
}

void Reactor::finish_close(const ReactorConnPtr& conn) {
  conn->closing_.store(true, std::memory_order_release);
  {
    std::lock_guard lock(conn->wr_mu_);
    if (conn->fd_ >= 0) {
      ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, conn->fd_, nullptr);
      ::close(conn->fd_);
      conn->fd_ = -1;
      // Return this connection's buffered bytes, including what has arrived
      // of a direct frame, to the global budget. Only on the first close
      // (fd guard): finish_close is idempotent.
      std::size_t rd_pending = conn->rd_end_ - conn->rd_consumed_;
      if (conn->direct_) rd_pending += serial::kHeaderSize + conn->direct_->got;
      track_buffered(*conn, -static_cast<std::ptrdiff_t>(conn->wr_bytes_ + rd_pending));
      conn->wr_bytes_ = 0;
      serial::Bytes().swap(conn->rdbuf_);
      conn->rd_consumed_ = 0;
      conn->rd_end_ = 0;
      conn->direct_.reset();
    }
    conn->wrq_.clear();
  }
  std::lock_guard lock(conns_mu_);
  conns_.erase(std::remove(conns_.begin(), conns_.end(), conn), conns_.end());
}

void Reactor::track_buffered(ReactorConn& conn, std::ptrdiff_t delta) {
  if (delta >= 0) {
    conn.buffered_bytes_.fetch_add(static_cast<std::size_t>(delta), std::memory_order_relaxed);
    total_buffered_.fetch_add(static_cast<std::size_t>(delta), std::memory_order_relaxed);
    return;
  }
  // Clamp-subtract: the accounting feeds shed decisions, and an off-by-one
  // that wrapped a size_t would read as "budget permanently blown".
  const std::size_t d = static_cast<std::size_t>(-delta);
  std::size_t cur = conn.buffered_bytes_.load(std::memory_order_relaxed);
  while (!conn.buffered_bytes_.compare_exchange_weak(cur, cur - std::min(cur, d),
                                                     std::memory_order_relaxed)) {
  }
  std::size_t tot = total_buffered_.load(std::memory_order_relaxed);
  while (!total_buffered_.compare_exchange_weak(tot, tot - std::min(tot, d),
                                                std::memory_order_relaxed)) {
  }
}

void Reactor::shed_accepted_fd(int fd) {
  // One best-effort BUSY frame so a protocol-speaking peer learns this was
  // load shedding (and how long to back off), then close. The socket buffer
  // of a brand-new connection always fits the 24-byte frame; if not, the
  // close alone still sheds.
  const serial::Bytes frame = serial::build_frame(
      kTransportBusyType, encode_busy_payload(config_.guard.retry_after_s));
  (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  ::close(fd);
  metrics_.accept_shed.inc();
}

bool Reactor::evict_lru_idle() {
  ReactorConnPtr victim;
  double oldest = 0.0;
  {
    std::lock_guard lock(conns_mu_);
    for (const auto& conn : conns_) {
      if (!conn->idle()) continue;
      const double last = conn->last_activity_.load(std::memory_order_relaxed);
      if (!victim || last < oldest) {
        victim = conn;
        oldest = last;
      }
    }
  }
  if (!victim) return false;
  finish_close(victim);
  metrics_.evicted.inc();
  return true;
}

void Reactor::enforce_global_budget() {
  // Shed largest-buffered connections until the total fits again. The
  // largest buffer is the best proxy for "the peer causing the pressure",
  // and shedding it frees the most budget per kill.
  for (int rounds = 0; rounds < 64; ++rounds) {
    if (total_buffered_.load(std::memory_order_relaxed) <= config_.guard.max_total_buffer_bytes) {
      return;
    }
    ReactorConnPtr victim;
    std::size_t biggest = 0;
    {
      std::lock_guard lock(conns_mu_);
      for (const auto& conn : conns_) {
        const std::size_t b = conn->buffered_bytes_.load(std::memory_order_relaxed);
        if (b > biggest) {
          biggest = b;
          victim = conn;
        }
      }
    }
    if (!victim) return;  // nothing left to shed
    metrics_.global_overflow.inc();
    finish_close(victim);
  }
}

void Reactor::sweep_guard(double now) {
  const double timeout = config_.guard.frame_progress_timeout_s;
  std::vector<ReactorConnPtr> snapshot;
  {
    std::lock_guard lock(conns_mu_);
    snapshot = conns_;
  }
  if (timeout > 0.0) {
    std::vector<ReactorConnPtr> stalled;
    for (const auto& conn : snapshot) {
      // Read side: a frame that started arriving must finish within the
      // window, however steadily the peer drips bytes into it.
      if (conn->frame_start_ > 0.0 && now - conn->frame_start_ > timeout) {
        stalled.push_back(conn);
        continue;
      }
      // Write side: a non-empty queue whose head is eligible (not pacing)
      // must see the socket accept bytes within the window — a peer that
      // stopped reading is indistinguishable from one that never will.
      std::lock_guard wlock(conn->wr_mu_);
      if (conn->wrq_.empty()) continue;
      if (conn->wrq_.front().not_before > now) {
        // Shaped chunk not yet released: our pacing, not peer slowness.
        conn->last_write_progress_ = now;
        continue;
      }
      if (now - conn->last_write_progress_ > timeout) stalled.push_back(conn);
    }
    for (const auto& conn : stalled) {
      metrics_.progress_kill.inc();
      finish_close(conn);
    }
  }
  enforce_global_budget();
  metrics_.buffered_bytes.set(
      static_cast<double>(total_buffered_.load(std::memory_order_relaxed)));
  metrics_.connections.set(static_cast<double>(connection_count()));
}

void Reactor::sweep_idle(double now) {
  std::vector<ReactorConnPtr> idle;
  {
    std::lock_guard lock(conns_mu_);
    for (const auto& conn : conns_) {
      const double last = conn->last_activity_.load(std::memory_order_relaxed);
      if (now - last > config_.idle_timeout_s && conn->idle()) idle.push_back(conn);
    }
  }
  for (const auto& conn : idle) finish_close(conn);
}

}  // namespace ns::net
