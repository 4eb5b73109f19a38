#include "client/client.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <optional>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "net/pool.hpp"
#include "net/transport.hpp"

namespace ns::client {

namespace {

using proto::MessageType;

/// The instruments every netsl touches, bound once (the registry never frees
/// an instrument). Rare paths (errors, retries, failover) look theirs up.
struct CallMetrics {
  metrics::Counter& calls = metrics::counter("client.calls_total");
  metrics::Counter& attempts = metrics::counter("client.attempts_total");
  metrics::Histogram& call_s = metrics::histogram("client.call_s");
  metrics::Histogram& span_query = metrics::histogram("span.client.query_s");
  metrics::Histogram& span_attempt = metrics::histogram("span.client.attempt_s");
  metrics::Histogram& span_transfer = metrics::histogram("span.client.result_transfer_s");
};

/// `extra` goes to the message's encode(): a SolveRequest takes the
/// caller's arguments there, so the request itself never copies them. The
/// encode gathers: bulk arrays are borrowed, not copied, which holds because
/// every send of these payloads is synchronous and the caller's arguments
/// outlive it.
serial::Payload encode_payload(const auto& msg, const auto&... extra) {
  serial::Encoder enc = serial::Encoder::gathering();
  msg.encode(enc, extra...);
  return enc.take_payload();
}

Result<net::Message> round_trip(const net::Endpoint& peer, std::uint16_t type,
                                const serial::Payload& payload, double timeout,
                                double connect_timeout = 5.0) {
  return net::pool_round_trip(peer, type, payload, timeout, std::min(timeout, connect_timeout));
}

Error decode_error_reply(const net::Message& msg) {
  serial::Decoder dec(msg.payload);
  auto reply = proto::ErrorReply::decode(dec);
  if (!reply.ok()) return make_error(ErrorCode::kProtocol, "malformed error reply");
  return make_error(static_cast<ErrorCode>(reply.value().error_code), reply.value().message);
}

/// A live deadline budget caps every attempt's wait: there is no point
/// blocking past the moment the caller stops caring about the answer.
double attempt_timeout(const ClientConfig& config, const proto::SolveRequest& request) {
  return request.deadline_s > 0.0 ? std::min(config.io_timeout_s, request.deadline_s)
                                  : config.io_timeout_s;
}

/// The SolveResult carried by a mux reply to `request_id`, or why there is none.
Result<proto::SolveResult> decode_solve_reply(Result<net::Message> reply,
                                              std::uint64_t request_id) {
  if (!reply.ok()) return reply.error();
  if (reply.value().type != static_cast<std::uint16_t>(MessageType::kSolveResult)) {
    return make_error(ErrorCode::kProtocol, "expected SolveResult from server");
  }
  serial::Decoder dec(reply.value().payload);
  auto result = proto::SolveResult::decode(dec);
  if (!result.ok()) return result.error();
  if (result.value().request_id != request_id) {
    return make_error(ErrorCode::kProtocol, "response id mismatch");
  }
  return result;
}

/// The attempts of one hedged race. Each is an async mux call whose
/// completion — run on that channel's reader thread — fills the attempt's
/// slot; the calling thread waits on the slots and times them out. The race
/// lives on the caller's stack, and its destructor ends it (see end()), so no
/// completion outlives the call.
class HedgeRace {
 public:
  struct Slot final : net::MuxCompletion {
    HedgeRace* race = nullptr;
    proto::ServerCandidate candidate;
    net::MuxChannelPtr channel;  // null when the dial failed
    double start = 0.0;          // call-relative offset, for the attempt span
    double sent_at = 0.0;        // now_seconds() when the attempt began
    double expires_at = 0.0;     // now_seconds() at which the attempt times out
    double io_seconds = 0.0;
    std::optional<Result<net::Message>> reply;
    bool processed = false;

    void complete(Result<net::Message> r) override {
      // Notify under the lock: the race may end (and go away) the moment it
      // observes the reply.
      std::lock_guard<std::mutex> lock(race->mu_);
      io_seconds = now_seconds() - sent_at;
      reply.emplace(std::move(r));
      race->cv_.notify_all();
    }
  };

  explicit HedgeRace(std::uint64_t request_id) : request_id_(request_id) {}
  ~HedgeRace() { end(); }

  /// Send the SolveRequest `payload` to `cand` over its mux channel.
  Slot& launch(const proto::ServerCandidate& cand, double start, double timeout,
               const serial::Payload& payload, const net::LinkShape& link) {
    Slot& slot = slots_[launched_++];
    slot.race = this;
    slot.candidate = cand;
    slot.start = start;
    slot.sent_at = now_seconds();
    auto channel =
        net::ConnectionPool::instance().channel(cand.endpoint, std::min(2.0, timeout));
    if (!channel.ok()) {
      slot.reply.emplace(channel.error());  // never registered: no completion races this
      return slot;
    }
    slot.channel = std::move(channel.value());
    slot.channel->start(static_cast<std::uint16_t>(MessageType::kSolveRequest), payload,
                        kReplyType, request_id_, &slot, link);
    slot.expires_at = now_seconds() + timeout;
    return slot;
  }

  /// The next finished attempt, or nullptr once `hedge_at` (a now_seconds()
  /// instant) passes first. An attempt past its timeout is withdrawn and
  /// finishes with kTimeout, exactly like a synchronous mux call. Only call
  /// while unsettled().
  Slot* next(double hedge_at) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto finished = [&]() -> Slot* {
      for (std::size_t i = 0; i < launched_; ++i) {
        if (slots_[i].reply.has_value() && !slots_[i].processed) return &slots_[i];
      }
      return nullptr;
    };
    for (;;) {
      if (Slot* done = finished()) {
        done->processed = true;
        return done;
      }
      const double now = now_seconds();
      if (now >= hedge_at) return nullptr;
      double wake = hedge_at;
      Slot* expired = nullptr;
      for (std::size_t i = 0; i < launched_; ++i) {
        if (slots_[i].reply.has_value()) continue;
        if (slots_[i].expires_at <= now) expired = &slots_[i];
        wake = std::min(wake, slots_[i].expires_at);
      }
      if (expired == nullptr) {
        cv_.wait_for(lock, std::chrono::duration<double>(wake - now),
                     [&] { return finished() != nullptr; });
      } else if (withdraw(*expired, lock)) {
        expired->reply.emplace(make_error(ErrorCode::kTimeout, "mux call timed out"));
      }
    }
  }

  /// Any launched attempt whose outcome has not been taken by next()?
  bool unsettled() {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < launched_; ++i) {
      if (!slots_[i].processed) return true;
    }
    return false;
  }

  /// End the race: withdraw every attempt still in flight and CANCEL it on
  /// its own channel with no reply awaited (the server's ack is read and
  /// dropped whole), so this never dials and never waits. Results next()
  /// has not handed out are dropped.
  void end() {
    std::unique_lock<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < launched_; ++i) {
      Slot& slot = slots_[i];
      if (slot.processed) continue;
      slot.processed = true;
      if (slot.reply.has_value() || !withdraw(slot, lock)) continue;
      lock.unlock();
      metrics::counter("client.cancel_sent_total").inc();
      proto::CancelRequest cancel;
      cancel.request_id = request_id_;
      slot.channel->start(static_cast<std::uint16_t>(MessageType::kCancelRequest),
                          encode_payload(cancel),
                          static_cast<std::uint16_t>(MessageType::kCancelAck), request_id_,
                          /*done=*/nullptr);
      lock.lock();
    }
  }

 private:
  /// Withdraw an in-flight attempt; `lock` holds mu_. False: its completion
  /// was already running, and has now filled the slot.
  bool withdraw(Slot& slot, std::unique_lock<std::mutex>& lock) {
    lock.unlock();
    const bool withdrawn = slot.channel->withdraw(request_id_, kReplyType, &slot);
    lock.lock();
    if (!withdrawn) cv_.wait(lock, [&] { return slot.reply.has_value(); });
    return withdrawn;
  }

  static constexpr auto kReplyType = static_cast<std::uint16_t>(MessageType::kSolveResult);

  std::mutex mu_;
  std::condition_variable cv_;
  std::array<Slot, 2> slots_;  // primary, backup
  std::size_t launched_ = 0;
  const std::uint64_t request_id_;
};

std::uint64_t request_size_hint(const std::vector<dsl::DataObject>& args) {
  // The client does not know which argument the problem's complexity model
  // keys on (that is agent-side metadata), so it sends the dominant size
  // across all arguments — correct for every problem in the builtin
  // catalogue whose size argument is also its largest object, and a
  // documented approximation otherwise.
  std::uint64_t hint = 1;
  for (const auto& arg : args) hint = std::max<std::uint64_t>(hint, arg.size_hint());
  return hint;
}

}  // namespace

// ---- agent failover ----

std::vector<std::size_t> NetSolveClient::agent_order() {
  std::lock_guard<std::mutex> lock(agents_mu_);
  const double now = now_seconds();
  std::vector<std::size_t> live;
  std::vector<std::size_t> cooling;
  const auto classify = [&](std::size_t i) {
    (agent_health_[i].down_until > now ? cooling : live).push_back(i);
  };
  if (active_agent_ < config_.agents.size()) classify(active_agent_);
  for (std::size_t i = 0; i < config_.agents.size(); ++i) {
    if (i != active_agent_) classify(i);
  }
  live.insert(live.end(), cooling.begin(), cooling.end());
  return live;
}

void NetSolveClient::note_agent_result(std::size_t index, bool ok) {
  std::lock_guard<std::mutex> lock(agents_mu_);
  if (index >= agent_health_.size()) return;
  if (ok) {
    agent_health_[index].down_until = 0.0;
    active_agent_ = index;  // stick with whoever answered
  } else {
    agent_health_[index].down_until = now_seconds() + config_.agent_down_cooldown_s;
  }
}

Result<net::Message> NetSolveClient::agent_round_trip(std::uint16_t type,
                                                      const serial::Payload& payload,
                                                      double timeout) {
  if (config_.agents.empty()) {
    return make_error(ErrorCode::kAgentUnavailable, "no agents configured");
  }
  Error last_error = make_error(ErrorCode::kAgentUnavailable, "no agent reachable");
  bool failed_over = false;
  for (const std::size_t index : agent_order()) {
    auto reply =
        round_trip(config_.agents[index], type, payload, timeout, config_.agent_connect_timeout_s);
    if (reply.ok()) {
      // Any reply — even an ErrorReply — means the agent is up.
      note_agent_result(index, true);
      if (failed_over) {
        metrics::counter("client.agent_failover_total").inc();
        NS_INFO("client") << "failed over to agent "
                          << config_.agents[index].to_string();
      }
      return reply;
    }
    note_agent_result(index, false);
    last_error = reply.error();
    failed_over = true;
  }
  return last_error;
}

void NetSolveClient::post_to_agent(std::uint16_t type, const serial::Payload& payload) {
  const auto order = agent_order();
  if (order.empty()) return;
  const std::size_t index = order.front();
  {
    std::lock_guard<std::mutex> lock(agents_mu_);
    if (agent_health_[index].down_until > now_seconds()) return;  // everyone is down
  }
  // The agent never replies to reports, so the pooled connection stays clean.
  (void)net::pool_post(config_.agents[index], type, payload, /*dial_timeout_s=*/1.0);
}

Result<proto::ServerList> NetSolveClient::query_metadata(const std::string& problem,
                                                         std::uint64_t input_bytes,
                                                         std::uint64_t size_hint,
                                                         double timeout_cap,
                                                         trace::TraceId trace_id,
                                                         bool* degraded) {
  proto::Query query;
  query.problem = problem;
  query.input_bytes = input_bytes;
  // Reply size is unknown before execution; assume symmetry with the input
  // (exact for solve-style problems returning vectors smaller than their
  // inputs, conservative for dgemm-style ones).
  query.output_bytes = input_bytes;
  query.size_hint = size_hint;
  query.max_candidates = config_.max_candidates;
  query.trace_id = trace_id;

  const double timeout =
      timeout_cap > 0.0 ? std::min(config_.io_timeout_s, timeout_cap) : config_.io_timeout_s;
  auto reply = agent_round_trip(static_cast<std::uint16_t>(MessageType::kQuery),
                                encode_payload(query), timeout);
  if (!reply.ok()) {
    // Every agent is unreachable. Degraded mode: serve the last good ranked
    // list for this problem from the staleness-bounded cache, so known work
    // keeps flowing direct-to-server through a full scheduler-tier outage.
    if (config_.candidate_cache_ttl_s > 0.0) {
      std::lock_guard<std::mutex> lock(cache_mu_);
      const auto it = candidate_cache_.find(problem);
      if (it != candidate_cache_.end() &&
          now_seconds() - it->second.stored_at <= config_.candidate_cache_ttl_s) {
        if (degraded != nullptr) *degraded = true;
        NS_WARN("client") << "all agents down; using cached candidates for " << problem;
        return it->second.list;
      }
    }
    return make_error(ErrorCode::kAgentUnavailable, reply.error().to_string());
  }
  if (reply.value().type == static_cast<std::uint16_t>(MessageType::kErrorReply)) {
    return decode_error_reply(reply.value());
  }
  if (reply.value().type != static_cast<std::uint16_t>(MessageType::kServerList)) {
    return make_error(ErrorCode::kProtocol, "expected ServerList from agent");
  }
  serial::Decoder dec(reply.value().payload);
  auto list = proto::ServerList::decode(dec);
  if (list.ok() && !list.value().candidates.empty() && config_.candidate_cache_ttl_s > 0.0) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto& slot = candidate_cache_[problem];
    slot.list = list.value();
    slot.stored_at = now_seconds();
  }
  return list;
}

Result<proto::ServerList> NetSolveClient::query(const std::string& problem,
                                                const std::vector<dsl::DataObject>& args) {
  return query_metadata(problem, dsl::args_byte_size(args), request_size_hint(args));
}

Result<proto::SolveResult> NetSolveClient::attempt(const proto::ServerCandidate& candidate,
                                                   const proto::SolveRequest& request,
                                                   const std::vector<dsl::DataObject>& args,
                                                   double* io_seconds) {
  const Stopwatch watch;
  const double timeout = attempt_timeout(config_, request);
  // Pipelined: every attempt against this server shares one socket; the
  // reply is demultiplexed by request id, so concurrent netsl_nb calls and
  // hedges interleave instead of dialing a connection each.
  auto channel =
      net::ConnectionPool::instance().channel(candidate.endpoint, std::min(2.0, timeout));
  if (!channel.ok()) return channel.error();
  auto reply = channel.value()->call(static_cast<std::uint16_t>(MessageType::kSolveRequest),
                                     encode_payload(request, args),
                                     static_cast<std::uint16_t>(MessageType::kSolveResult),
                                     request.request_id, timeout, config_.link);
  if (reply.ok() && io_seconds != nullptr) *io_seconds = watch.elapsed();
  return decode_solve_reply(std::move(reply), request.request_id);
}

void NetSolveClient::report_failure(proto::ServerId id, ErrorCode code) {
  if (!config_.report_failures) return;
  proto::FailureReport report;
  report.server_id = id;
  report.error_code = static_cast<std::uint16_t>(code);
  post_to_agent(static_cast<std::uint16_t>(MessageType::kFailureReport),
                encode_payload(report));
}

void NetSolveClient::report_metrics(proto::ServerId id, std::uint64_t bytes, double seconds) {
  if (!config_.report_metrics) return;
  proto::MetricsReport report;
  report.server_id = id;
  report.bytes = bytes;
  report.transfer_seconds = seconds;
  post_to_agent(static_cast<std::uint16_t>(MessageType::kMetricsReport),
                encode_payload(report));
}

double NetSolveClient::backoff_jitter(double prev_sleep) {
  std::lock_guard<std::mutex> lock(backoff_mu_);
  return std::min(config_.backoff_max_s,
                  backoff_rng_.uniform(config_.backoff_base_s, prev_sleep * 3.0));
}

double NetSolveClient::hedge_delay_for(const metrics::Histogram& hist) const {
  if (config_.hedge_delay_s <= 0.0) return 0.0;
  if (hist.count() < config_.hedge_min_samples) return config_.hedge_delay_s;
  const double q = hist.percentile(config_.hedge_quantile);
  return q > 0.0 ? q : config_.hedge_delay_s;
}

void NetSolveClient::begin_background() {
  std::lock_guard<std::mutex> lock(bg_mu_);
  ++bg_outstanding_;
}

void NetSolveClient::end_background() {
  // Notify while holding the lock: the destructor may free the condvar the
  // instant the count reaches zero and the mutex is released.
  std::lock_guard<std::mutex> lock(bg_mu_);
  --bg_outstanding_;
  bg_cv_.notify_all();
}

Result<std::vector<dsl::DataObject>> NetSolveClient::netsl(
    const std::string& problem, const std::vector<dsl::DataObject>& args, CallStats* stats) {
  const Stopwatch total_watch;
  const bool budgeted = config_.deadline_s > 0.0;
  const Deadline deadline = budgeted ? Deadline(config_.deadline_s) : Deadline::never();

  CallStats local_stats;
  CallStats& st = stats != nullptr ? *stats : local_stats;
  st = CallStats{};
  st.trace_id = trace::new_trace_id();
  static CallMetrics m;
  m.calls.inc();
  // Per-problem attempt latency: feeds the hedge delay, successes only.
  metrics::Histogram& attempt_hist =
      metrics::histogram("client.problem." + problem + ".attempt_s");
  // Every hop lands in the stats object; only the client's own hops also land
  // in its span.* histograms (the agent and server record theirs).
  const auto add_span = [&](const char* name, double start_s, double dur_s,
                            metrics::Histogram* own) {
    if (own != nullptr) trace::record_span(*own, st.trace_id, name, start_s, dur_s);
    st.spans.push_back(trace::Span{name, start_s, dur_s});
  };

  proto::SolveRequest request;
  request.request_id = next_request_id_.fetch_add(1);
  request.problem = problem;
  request.trace_id = st.trace_id;
  request.client_id = client_id_;
  request.require_durable = config_.require_durable;
  const std::uint64_t input_bytes = dsl::args_byte_size(args);
  const std::uint64_t size_hint = request_size_hint(args);

  int attempts = 0;
  double prev_sleep = config_.backoff_base_s;
  double backoff_total = 0.0;
  // Cooperative backpressure: a retryable server rejection may carry a
  // retry_after_s hint; the next backoff honors it (sleeps at least that
  // long, still clamped into the deadline budget).
  double pending_retry_after = 0.0;
  Error last_error = make_error(ErrorCode::kRetriesExhausted, "no attempt made");

  // Hedge attempt spans land when their slot is processed, which can be out
  // of the start-time order the CallStats contract promises.
  const auto sort_spans = [&] {
    std::stable_sort(st.spans.begin(), st.spans.end(),
                     [](const trace::Span& a, const trace::Span& b) {
                       return a.start_s < b.start_s;
                     });
  };

  // Every error return funnels through here so failure counters and the
  // call-latency histogram cover unsuccessful calls, and CallStats carries
  // the attempt/backoff totals even when the call did not complete.
  const auto fail = [&](Error err) {
    st.attempts = attempts;
    st.backoff_seconds = backoff_total;
    st.total_seconds = total_watch.elapsed();
    sort_spans();
    metrics::counter("client.failures_total").inc();
    m.call_s.observe(st.total_seconds);
    return err;
  };

  // Success path shared by the plain and hedged attempts.
  const auto finish_success = [&](const proto::ServerCandidate& cand,
                                  proto::SolveResult&& result, double attempt_start,
                                  double io_seconds) {
    // Reconstruct the winning attempt's hop breakdown: the server reported
    // how long the request waited in its queue and how long the compute ran;
    // whatever remains of the measured IO time is transfer. The wire carries
    // no one-way timings, so the transfer budget is split evenly around the
    // server-side spans.
    add_span("client.attempt", attempt_start, io_seconds, &m.span_attempt);
    const double queue = std::max(result.queue_seconds, 0.0);
    const double exec = std::max(result.exec_seconds, 0.0);
    const double half_transfer = std::max(io_seconds - queue - exec, 0.0) / 2.0;
    add_span("server.queue_wait", attempt_start + half_transfer, queue, nullptr);
    add_span("server.compute", attempt_start + half_transfer + queue, exec, nullptr);
    add_span("client.result_transfer", attempt_start + half_transfer + queue + exec,
             half_transfer, &m.span_transfer);

    const std::uint64_t output_bytes = dsl::args_byte_size(result.outputs);
    const double transfer = std::max(io_seconds - result.exec_seconds, 0.0);
    report_metrics(cand.server_id, input_bytes + output_bytes, transfer);
    // Successful attempts only: a straggler's latency says where the timeout
    // landed, not where the service time lives, and would poison the
    // quantile the hedge delay is derived from.
    attempt_hist.observe(io_seconds);
    st.server_id = cand.server_id;
    st.server_name = cand.server_name;
    st.predicted_seconds = cand.predicted_seconds;
    st.total_seconds = total_watch.elapsed();
    st.exec_seconds = result.exec_seconds;
    st.transfer_seconds = transfer;
    st.input_bytes = input_bytes;
    st.output_bytes = output_bytes;
    st.attempts = attempts;
    st.backoff_seconds = backoff_total;
    sort_spans();
    m.call_s.observe(st.total_seconds);
    return std::move(result.outputs);
  };

  // Judges one finished attempt; `race` is the hedged race it ran in (null
  // for a plain attempt) and `backup` says it was that race's hedge. Returns
  // the call's result when the attempt ends the call, nullopt to go on down
  // the ranked list. Every outcome but a retryable failure ends the race,
  // cancelling a sibling still in flight.
  const auto settle = [&](const proto::ServerCandidate& cand,
                          Result<proto::SolveResult> result, double attempt_start,
                          double io_seconds, HedgeRace* race,
                          bool backup) -> std::optional<Result<std::vector<dsl::DataObject>>> {
    const auto end_race = [&] {
      if (race != nullptr) race->end();
    };
    if (!result.ok()) {
      // Transport-level failure: blacklist and move on.
      add_span("client.attempt", attempt_start, total_watch.elapsed() - attempt_start,
               &m.span_attempt);
      NS_DEBUG("client") << "attempt on " << cand.server_name
                         << " failed: " << result.error().to_string();
      last_error = result.error();
      report_failure(cand.server_id, result.error().code);
      if (is_retryable(result.error().code)) return std::nullopt;
      end_race();
      return fail(result.error());
    }
    const auto code = static_cast<ErrorCode>(result.value().error_code);
    if (code == ErrorCode::kOk) {
      end_race();
      if (backup) metrics::counter("client.hedge_wins_total").inc();
      return finish_success(cand, std::move(result.value()), attempt_start, io_seconds);
    }
    add_span("client.attempt", attempt_start, io_seconds, &m.span_attempt);
    if (code == ErrorCode::kMigrated && result.value().migrated_port != 0) {
      // The job is still running on the destination server (drain moved it
      // with its checkpoint): follow the forwarding address and wait there
      // rather than starting a duplicate solve elsewhere. A racing sibling
      // is cancelled first — the migrated job already owns the answer.
      end_race();
      const net::Endpoint dest{result.value().migrated_host, result.value().migrated_port};
      metrics::counter("client.migrations_followed_total").inc();
      NS_DEBUG("client") << "request " << request.request_id << " migrated to " << dest.host
                         << ":" << dest.port << "; following";
      const double follow_budget = budgeted ? deadline.remaining() : config_.io_timeout_s;
      auto followed = wait_for_job(dest, request.request_id, follow_budget);
      if (followed.ok() &&
          static_cast<ErrorCode>(followed.value().error_code) == ErrorCode::kOk) {
        return finish_success(cand, std::move(followed.value()), attempt_start,
                              total_watch.elapsed() - attempt_start);
      }
      // Dead end (destination unreachable or the job failed there too). The
      // solve is idempotent, so falling back to a fresh attempt on the next
      // candidate is safe.
      last_error = make_error(ErrorCode::kMigrated, "migration follow failed for request " +
                                                        std::to_string(request.request_id));
      return std::nullopt;
    }
    Error err = make_error(code, result.value().error_message);
    if (!is_retryable(code)) {
      end_race();
      return fail(std::move(err));  // the request itself is bad; retrying cannot help
    }
    NS_DEBUG("client") << "server " << cand.server_name
                       << " replied failure: " << err.to_string();
    pending_retry_after = std::max(pending_retry_after, result.value().retry_after_s);
    last_error = std::move(err);
    // An overload rejection is an admission decision by a healthy server,
    // not a fault: reporting it would quarantine the very pool that is
    // asking us to back off. The agent learns about the pressure from the
    // server's own workload reports instead.
    if (code != ErrorCode::kServerOverloaded) report_failure(cand.server_id, code);
    return std::nullopt;
  };

  // Hedge delay for this call (0 = hedging off): the observed per-problem
  // latency quantile once warmed up, else the configured static delay.
  const double hedge_delay = hedge_delay_for(attempt_hist);

  // Budgeted calls retry until the deadline, not a fixed attempt count; a
  // budget of time is what the caller actually has to spend.
  const auto out_of_budget = [&] {
    return budgeted ? deadline.expired() : attempts >= config_.max_retries;
  };

  // Within a deadline budget, a transiently empty pool or unreachable agent
  // is worth waiting out: quarantined servers get re-admitted and partitions
  // heal. Backoff, then re-query.
  const auto retry_within_budget = [&](Error err) {
    last_error = std::move(err);
    prev_sleep = backoff_jitter(prev_sleep);
    const double sleep_s = std::min(prev_sleep, deadline.remaining());
    if (sleep_s > 0.0) {
      sleep_seconds(sleep_s);
      backoff_total += sleep_s;
      metrics::histogram("client.backoff_s").observe(sleep_s);
    }
  };

  while (!out_of_budget()) {
    const double query_start = total_watch.elapsed();
    bool degraded = false;
    auto list = query_metadata(problem, input_bytes, size_hint,
                               budgeted ? deadline.remaining() : 0.0, st.trace_id, &degraded);
    const double query_dur = total_watch.elapsed() - query_start;
    if (degraded && !st.degraded) {
      st.degraded = true;
      metrics::counter("client.degraded_calls_total").inc();
    }
    if (!list.ok()) {
      const auto code = list.error().code;
      if (budgeted && (code == ErrorCode::kNoServer ||
                       code == ErrorCode::kAgentUnavailable || is_retryable(code))) {
        retry_within_budget(list.error());
        continue;
      }
      // If servers existed but all failed under us (we reported them and the
      // agent blacklisted them), surface that as exhausted retries rather
      // than a bare "no server" — the request did reach servers.
      if (code == ErrorCode::kNoServer && attempts > 0) {
        return fail(make_error(ErrorCode::kRetriesExhausted,
                               "all servers failed; last: " + last_error.to_string()));
      }
      return fail(list.error());
    }
    add_span("client.query", query_start, query_dur, &m.span_query);
    // The scheduling decision happened inside the query round trip, right
    // before the reply was sent; anchor it at the tail of the query span so
    // span starts stay non-decreasing.
    const double sched = std::clamp(list.value().schedule_seconds, 0.0, query_dur);
    add_span("agent.schedule", query_start + (query_dur - sched), sched, nullptr);
    if (list.value().candidates.empty()) {
      if (budgeted) {
        retry_within_budget(
            make_error(ErrorCode::kNoServer, "agent returned no candidates for " + problem));
        continue;
      }
      return fail(
          make_error(ErrorCode::kNoServer, "agent returned no candidates for " + problem));
    }

    const auto& candidates = list.value().candidates;
    std::size_t ci = 0;
    while (ci < candidates.size()) {
      if (out_of_budget()) break;
      const auto& candidate = candidates[ci];
      ++attempts;
      m.attempts.inc();
      if (attempts > 1) metrics::counter("client.retries_total").inc();

      // Decorrelated-jitter backoff before every retry (never the first
      // attempt), clamped to whatever budget remains. A server-issued
      // retry_after hint raises the floor: the server told us when capacity
      // is expected, and retrying sooner would just be shed again.
      if (attempts > 1 && (config_.backoff_base_s > 0.0 || pending_retry_after > 0.0)) {
        double sleep_s = 0.0;
        if (config_.backoff_base_s > 0.0) {
          prev_sleep = backoff_jitter(prev_sleep);
          sleep_s = prev_sleep;
        }
        if (pending_retry_after > sleep_s) {
          sleep_s = pending_retry_after;
          metrics::counter("client.retry_after_honored_total").inc();
        }
        pending_retry_after = 0.0;
        sleep_s = std::min(sleep_s, deadline.remaining());
        if (sleep_s > 0.0) {
          sleep_seconds(sleep_s);
          backoff_total += sleep_s;
          metrics::histogram("client.backoff_s").observe(sleep_s);
        }
        if (budgeted && deadline.expired()) break;
      }
      request.deadline_s = budgeted ? deadline.remaining() : 0.0;

      if (hedge_delay <= 0.0 || ci + 1 >= candidates.size()) {
        // ---- plain attempt (hedging off, or no backup candidate) ----
        ++ci;
        const double attempt_start = total_watch.elapsed();
        double io_seconds = 0.0;
        auto result = attempt(candidate, request, args, &io_seconds);

        if (!result.ok() && config_.reattach_s > 0.0 &&
            result.error().code != ErrorCode::kConnectFailed) {
          // The transport died after the request went out, so the server may
          // have admitted (and journaled) the job before crashing. Poll its
          // durable state instead of resubmitting: a restarted server
          // recovers the job from its write-ahead log and finishes the
          // original submission, sparing a duplicate solve.
          metrics::counter("client.reattach_total").inc();
          const double reattach_budget =
              budgeted ? std::min(config_.reattach_s, deadline.remaining())
                       : config_.reattach_s;
          NS_DEBUG("client") << "transport lost mid-call; reattaching to "
                             << candidate.server_name << " for request "
                             << request.request_id;
          auto recovered = wait_for_job(candidate.endpoint, request.request_id,
                                        reattach_budget);
          if (recovered.ok()) {
            metrics::counter("client.reattach_success_total").inc();
            io_seconds = total_watch.elapsed() - attempt_start;
            result = std::move(recovered);
          }
        }

        if (!result.ok() && config_.checkpoint_failover) {
          // The server is gone for good (reattach exhausted, or the dial
          // itself was refused). If it was replicating checkpoints, one of
          // the other ranked candidates may hold the job's latest snapshot:
          // ask each to adopt it. The adopter resumes mid-iteration, so the
          // work done before the crash is not recomputed from zero.
          for (const auto& peer : candidates) {
            if (peer.server_id == candidate.server_id) continue;
            proto::CheckpointFetch fetch;
            fetch.request_id = request.request_id;
            fetch.adopt = true;
            auto reply = round_trip(
                peer.endpoint, static_cast<std::uint16_t>(MessageType::kCheckpointFetch),
                encode_payload(fetch), /*timeout=*/2.0, /*connect_timeout=*/2.0);
            if (!reply.ok() ||
                reply.value().type !=
                    static_cast<std::uint16_t>(MessageType::kCheckpointFetchReply)) {
              continue;
            }
            serial::Decoder dec(reply.value().payload);
            auto fr = proto::CheckpointFetchReply::decode(dec);
            if (!fr.ok() || !fr.value().adopted) continue;
            metrics::counter("client.failover_adopt_total").inc();
            NS_DEBUG("client") << "request " << request.request_id << " adopted by "
                               << peer.server_name << " at checkpoint iteration "
                               << fr.value().iteration << "; waiting there";
            const double follow_budget =
                budgeted ? deadline.remaining() : config_.io_timeout_s;
            auto followed =
                wait_for_job(peer.endpoint, request.request_id, follow_budget);
            if (followed.ok()) {
              io_seconds = total_watch.elapsed() - attempt_start;
              result = std::move(followed);
            }
            break;  // adopt-once: no other peer still holds the entry
          }
        }

        if (auto out = settle(candidate, std::move(result), attempt_start, io_seconds,
                              /*race=*/nullptr, /*backup=*/false)) {
          return std::move(*out);
        }
        continue;
      }

      // ---- hedged race ----
      //
      // Send the primary now; if it is still outstanding after the hedge
      // delay, race a backup on the next-ranked candidate. Both attempts are
      // async mux calls completed by their channels' reader threads. First
      // result wins; the loser is actively cancelled (CANCEL on its own
      // channel) so it stops burning a remote worker slot, and leaving the
      // race withdraws it. Losing attempts never touch the retry bookkeeping
      // — they are discarded, not failures.
      HedgeRace race(request.request_id);
      const auto launch = [&](const proto::ServerCandidate& cand) -> HedgeRace::Slot& {
        request.deadline_s = budgeted ? deadline.remaining() : 0.0;
        return race.launch(cand, total_watch.elapsed(), attempt_timeout(config_, request),
                           encode_payload(request, args), config_.link);
      };

      const HedgeRace::Slot* const primary = &launch(candidate);
      double hedge_at = now_seconds() + hedge_delay;
      std::size_t consumed = 1;

      for (;;) {
        HedgeRace::Slot* const done = race.next(hedge_at);
        if (done == nullptr) {
          // Hedge delay elapsed with the primary still outstanding.
          hedge_at = std::numeric_limits<double>::infinity();
          st.hedged = true;
          metrics::counter("client.hedge_total").inc();
          ++attempts;
          m.attempts.inc();
          NS_DEBUG("client") << "hedging " << problem << " on "
                             << candidates[ci + 1].server_name << " after " << hedge_delay
                             << "s";
          launch(candidates[ci + 1]);
          consumed = 2;
          continue;
        }
        // The completion is finished with this slot (established under the
        // race lock); read it freely.
        if (auto out = settle(done->candidate,
                              decode_solve_reply(std::move(*done->reply), request.request_id),
                              done->start, done->io_seconds, &race, done != primary)) {
          return std::move(*out);
        }
        // A retryable failure: keep waiting if the sibling is still racing,
        // otherwise move on down the ranked list.
        if (!race.unsettled()) break;
      }
      ci += consumed;
    }
    // Ranked list exhausted; re-query (the agent has fresher liveness data
    // after our failure reports).
  }
  if (budgeted) {
    metrics::counter("client.deadline_exceeded_total").inc();
    return fail(make_error(ErrorCode::kDeadlineExceeded,
                           "deadline budget of " + std::to_string(config_.deadline_s) +
                               "s exhausted after " + std::to_string(attempts) +
                               " attempts; last: " + last_error.to_string()));
  }
  return fail(make_error(ErrorCode::kRetriesExhausted,
                         "all " + std::to_string(attempts) +
                             " attempts failed; last: " + last_error.to_string()));
}

Result<std::vector<dsl::ProblemSpec>> NetSolveClient::list_problems() {
  auto reply = agent_round_trip(static_cast<std::uint16_t>(MessageType::kListProblems), {},
                                config_.io_timeout_s);
  if (!reply.ok()) return make_error(ErrorCode::kAgentUnavailable, reply.error().to_string());
  if (reply.value().type == static_cast<std::uint16_t>(MessageType::kErrorReply)) {
    return decode_error_reply(reply.value());
  }
  if (reply.value().type != static_cast<std::uint16_t>(MessageType::kProblemCatalog)) {
    return make_error(ErrorCode::kProtocol, "expected ProblemCatalog");
  }
  serial::Decoder dec(reply.value().payload);
  auto catalog = proto::ProblemCatalog::decode(dec);
  if (!catalog.ok()) return catalog.error();
  return std::move(catalog.value().problems);
}

Result<proto::AgentStats> NetSolveClient::agent_stats() {
  auto reply = agent_round_trip(static_cast<std::uint16_t>(MessageType::kAgentStatsRequest),
                                {}, config_.io_timeout_s);
  if (!reply.ok()) return make_error(ErrorCode::kAgentUnavailable, reply.error().to_string());
  if (reply.value().type != static_cast<std::uint16_t>(MessageType::kAgentStatsReply)) {
    return make_error(ErrorCode::kProtocol, "expected AgentStatsReply");
  }
  serial::Decoder dec(reply.value().payload);
  return proto::AgentStats::decode(dec);
}

Status NetSolveClient::ping_agent() {
  auto reply = agent_round_trip(static_cast<std::uint16_t>(MessageType::kPing), {},
                                config_.io_timeout_s);
  if (!reply.ok()) return reply.error();
  if (reply.value().type != static_cast<std::uint16_t>(MessageType::kPong)) {
    return make_error(ErrorCode::kProtocol, "expected Pong");
  }
  return ok_status();
}

Result<metrics::Snapshot> scrape_metrics(const net::Endpoint& peer, double timeout_s,
                                         const std::string& prefix) {
  proto::MetricsQuery query;
  query.prefix = prefix;
  auto reply = round_trip(peer, static_cast<std::uint16_t>(MessageType::kMetricsQuery),
                          encode_payload(query), timeout_s);
  if (!reply.ok()) return reply.error();
  if (reply.value().type == static_cast<std::uint16_t>(MessageType::kErrorReply)) {
    return decode_error_reply(reply.value());
  }
  if (reply.value().type != static_cast<std::uint16_t>(MessageType::kMetricsDump)) {
    return make_error(ErrorCode::kProtocol, "expected MetricsDump");
  }
  serial::Decoder dec(reply.value().payload);
  auto dump = proto::MetricsDump::decode(dec);
  if (!dump.ok()) return dump.error();
  return std::move(dump.value().snapshot);
}

Result<proto::CancelAck> cancel_request(const net::Endpoint& peer, std::uint64_t request_id,
                                        double timeout_s) {
  proto::CancelRequest cancel;
  cancel.request_id = request_id;
  auto reply = round_trip(peer, static_cast<std::uint16_t>(MessageType::kCancelRequest),
                          encode_payload(cancel), timeout_s);
  if (!reply.ok()) return reply.error();
  if (reply.value().type != static_cast<std::uint16_t>(MessageType::kCancelAck)) {
    return make_error(ErrorCode::kProtocol, "expected CancelAck");
  }
  serial::Decoder dec(reply.value().payload);
  return proto::CancelAck::decode(dec);
}

Result<proto::DrainAck> drain_server(const net::Endpoint& peer, double deadline_s,
                                     double timeout_s) {
  proto::DrainRequest drain;
  drain.deadline_s = deadline_s;
  auto reply = round_trip(peer, static_cast<std::uint16_t>(MessageType::kDrainRequest),
                          encode_payload(drain), timeout_s);
  if (!reply.ok()) return reply.error();
  if (reply.value().type != static_cast<std::uint16_t>(MessageType::kDrainAck)) {
    return make_error(ErrorCode::kProtocol, "expected DrainAck");
  }
  serial::Decoder dec(reply.value().payload);
  return proto::DrainAck::decode(dec);
}

Result<proto::ProbeReply> probe_request(const net::Endpoint& peer, std::uint64_t request_id,
                                        bool fetch_result, double timeout_s) {
  proto::ProbeRequest probe;
  probe.request_id = request_id;
  probe.fetch_result = fetch_result;
  auto reply = round_trip(peer, static_cast<std::uint16_t>(MessageType::kProbeRequest),
                          encode_payload(probe), timeout_s);
  if (!reply.ok()) return reply.error();
  if (reply.value().type != static_cast<std::uint16_t>(MessageType::kProbeReply)) {
    return make_error(ErrorCode::kProtocol, "expected ProbeReply");
  }
  serial::Decoder dec(reply.value().payload);
  return proto::ProbeReply::decode(dec);
}

Result<proto::SolveResult> wait_for_job(const net::Endpoint& peer, std::uint64_t request_id,
                                        double budget_s, double poll_interval_s) {
  net::Endpoint target = peer;
  const Deadline budget(budget_s);
  const double interval = poll_interval_s > 0.0 ? poll_interval_s : 0.05;
  while (true) {
    const double remaining = budget.remaining();
    if (remaining <= 0.0) break;
    auto reply = probe_request(target, request_id, /*fetch_result=*/true,
                               std::min(remaining, 2.0));
    if (reply.ok()) {
      const auto& probe = reply.value();
      if ((probe.state == proto::JobState::kCompleted ||
           probe.state == proto::JobState::kFailed) &&
          probe.has_result) {
        // A MIGRATED terminal record is a forwarding address, not an answer:
        // chase it (possibly through several hops of rolling drains).
        if (static_cast<ErrorCode>(probe.result.error_code) == ErrorCode::kMigrated &&
            probe.result.migrated_port != 0) {
          target = net::Endpoint{probe.result.migrated_host, probe.result.migrated_port};
          metrics::counter("client.migrations_followed_total").inc();
          continue;
        }
        return probe.result;
      }
      // Queued, running, or unknown (a restarting server replays its journal
      // before it starts answering probes, so unknown here usually means the
      // id truly never reached this server — but the budget, not one poll,
      // decides when to give up).
    }
    sleep_seconds(std::min(interval, budget.remaining()));
  }
  return make_error(ErrorCode::kTimeout,
                    "job " + std::to_string(request_id) + " did not reach a terminal state in " +
                        std::to_string(budget_s) + "s");
}

// ---- Non-blocking calls ----

struct RequestHandle::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::optional<Result<std::vector<dsl::DataObject>>> result;
  CallStats stats;
  std::thread worker;

  ~State() {
    if (!worker.joinable()) return;
    // If the handle was dropped before completion, the worker lambda holds
    // the last reference and this destructor runs on the worker thread
    // itself — joining would deadlock, so detach (the thread is already at
    // its final statement).
    if (worker.get_id() == std::this_thread::get_id()) {
      worker.detach();
    } else {
      worker.join();
    }
  }
};

NetSolveClient::~NetSolveClient() {
  // A dropped RequestHandle detaches its worker thread, which still runs
  // against this client: block (condvar, not a spin) until the last one
  // checks out.
  std::unique_lock<std::mutex> lock(bg_mu_);
  bg_cv_.wait(lock, [this] { return bg_outstanding_ == 0; });
}

RequestHandle NetSolveClient::netsl_nb(const std::string& problem,
                                       std::vector<dsl::DataObject> args) {
  auto state = std::make_shared<RequestHandle::State>();
  begin_background();
  // The worker keeps the state alive; the handle may be destroyed first.
  state->worker = std::thread(
      [this, state, problem, args = std::move(args)]() {
        CallStats stats;
        auto result = netsl(problem, args, &stats);
        {
          std::lock_guard<std::mutex> lock(state->mu);
          state->result.emplace(std::move(result));
          state->stats = stats;
          state->done = true;
          state->cv.notify_all();
        }
        // Last touch of the client: after this the destructor may proceed
        // and `this` may be gone.
        end_background();
      });
  return RequestHandle(std::move(state));
}

bool RequestHandle::ready() const {
  if (!state_) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

Result<std::vector<dsl::DataObject>> RequestHandle::wait() {
  if (!state_) {
    return make_error(ErrorCode::kInternal, "empty request handle");
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  if (!state_->result.has_value()) {
    return make_error(ErrorCode::kInternal, "result already consumed");
  }
  auto out = std::move(*state_->result);
  state_->result.reset();
  return out;
}

const CallStats& RequestHandle::stats() const {
  static const CallStats kEmpty{};
  if (!state_) return kEmpty;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->stats;
}

}  // namespace ns::client
