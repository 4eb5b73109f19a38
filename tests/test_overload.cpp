// Adaptive overload control: deadline-aware admission (EDF ordering,
// infeasible-at-admission sheds, expired-at-dequeue sheds), per-client
// fair-share quotas, CoDel-style sojourn shedding, the AIMD concurrency
// limit, and the cooperative retry_after backpressure loop. All scenarios
// use simwork under SlowdownMode::kSleep so "service time" is wall-clock
// sleep, not CPU — the tests run identically on a one-core host.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "net/transport.hpp"
#include "proto/messages.hpp"
#include "testkit/cluster.hpp"

#include "conservation.hpp"
#include "threads.hpp"

namespace ns {
namespace {

using dsl::DataObject;

// Poll `pred` until it holds or `timeout_s` lapses.
template <typename Pred>
bool eventually(Pred pred, double timeout_s = 5.0) {
  const Deadline deadline(timeout_s);
  while (!deadline.expired()) {
    if (pred()) return true;
    sleep_seconds(0.005);
  }
  return pred();
}

serial::Bytes encode_solve(std::uint64_t request_id, std::int64_t mflop,
                           double deadline_s = 0.0, std::uint64_t client_id = 0) {
  proto::SolveRequest msg;
  msg.request_id = request_id;
  msg.problem = "simwork";
  msg.args = {DataObject(mflop)};
  msg.deadline_s = deadline_s;
  msg.client_id = client_id;
  serial::Encoder enc;
  msg.encode(enc);
  return enc.take();
}

Result<proto::SolveResult> recv_solve_result(net::TcpConnection& conn, double timeout_s) {
  auto reply = net::recv_message(conn, timeout_s);
  NS_RETURN_IF_ERROR(reply);
  if (reply.value().type != static_cast<std::uint16_t>(proto::MessageType::kSolveResult)) {
    return make_error(ErrorCode::kProtocol, "expected SOLVE_RESULT");
  }
  serial::Decoder dec(reply.value().payload);
  return proto::SolveResult::decode(dec);
}

// One full-speed single-worker server with the given admission knobs; the
// rating is pinned so simwork(m) sleeps m/rating seconds exactly.
Result<std::unique_ptr<testkit::TestCluster>> single_server_cluster(
    double rating, int max_queue, const server::AdmissionConfig& admission,
    double client_deadline_s = 0.0) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(1, /*workers=*/1);
  config.servers[0].slowdown_mode = server::SlowdownMode::kSleep;
  config.servers[0].max_queue = max_queue;
  config.servers[0].admission = admission;
  config.rating_base = rating;
  config.io_timeout_s = 10.0;
  config.client_deadline_s = client_deadline_s;
  return testkit::TestCluster::start(std::move(config));
}

// ---- satellite bugfix: shed at dequeue, never computed ----

// A job whose deadline budget lapses while it queues must be dropped when
// the dispatcher reaches it — before any compute — with a RETRYABLE error
// (another server may still make the deadline), and counted separately from
// admission-time sheds.
TEST(OverloadTest, ExpiredInQueueJobIsShedAtDequeueNeverComputed) {
  auto cluster = single_server_cluster(/*rating=*/500.0, /*max_queue=*/16, {});
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();
  auto& server = cluster.value()->server(0);

  // Occupy the single worker for ~1s with an undeadlined job.
  auto occupier = cluster.value()->make_client();
  auto long_job = occupier.netsl_nb("simwork", {DataObject(std::int64_t{500})});
  ASSERT_TRUE(eventually([&] { return server.current_workload() >= 1.0; }));

  // Queue a short-budget job behind it: predicted service (~10ms) fits the
  // 0.4s budget at admission, but the budget lapses long before a slot
  // frees, so the dispatcher must shed it instead of computing.
  auto conn = net::TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(net::send_message(conn.value(),
                                static_cast<std::uint16_t>(proto::MessageType::kSolveRequest),
                                encode_solve(7001, 5, /*deadline_s=*/0.4))
                  .ok());
  auto result = recv_solve_result(conn.value(), 5.0);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(static_cast<ErrorCode>(result.value().error_code),
            ErrorCode::kServerOverloaded)
      << "dequeue shed must be retryable, not terminal";
  EXPECT_TRUE(is_retryable(static_cast<ErrorCode>(result.value().error_code)));

  EXPECT_GE(server.shed_dequeue(), 1u);
  EXPECT_EQ(server.shed_admission(), 0u);
  EXPECT_GE(server.shed(), 1u) << "legacy aggregate shed counter must still count";

  ASSERT_TRUE(long_job.wait().ok());
  // Only the occupier ever computed; the expired job never reached a kernel.
  EXPECT_EQ(server.completed(), 1u);

  auto snap = cluster.value()->scrape_server_metrics(0, "server.");
  ASSERT_TRUE(snap.ok());
  const auto* dequeue = snap.value().find("server.shed_dequeue_total");
  ASSERT_NE(dequeue, nullptr);
  EXPECT_GE(dequeue->count, 1u);
  conservation::expect_conserved(*cluster.value(), tally);
}

// ---- EDF ordering ----

// With the worker occupied, three queued jobs must start in deadline order,
// not arrival order.
TEST(OverloadTest, EdfDispatchesEarliestDeadlineFirst) {
  auto cluster = single_server_cluster(/*rating=*/1000.0, /*max_queue=*/16, {});
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();
  auto& server = cluster.value()->server(0);

  auto occupier = cluster.value()->make_client();
  auto long_job = occupier.netsl_nb("simwork", {DataObject(std::int64_t{1000})});
  ASSERT_TRUE(eventually([&] { return server.current_workload() >= 1.0; }));

  // Arrival order A, B, C; deadline order B (2.0s) < C (3.5s) < A (5.0s).
  struct Waiter {
    net::TcpConnection conn;
    double done_at = 0.0;
    bool ok = false;
  };
  const double deadlines[3] = {5.0, 2.0, 3.5};
  std::vector<Waiter> waiters;
  for (int i = 0; i < 3; ++i) {
    auto conn = net::TcpConnection::connect(server.endpoint());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(
        net::send_message(conn.value(),
                          static_cast<std::uint16_t>(proto::MessageType::kSolveRequest),
                          encode_solve(7100 + static_cast<std::uint64_t>(i), 100,
                                       deadlines[i]))
            .ok());
    waiters.push_back(Waiter{std::move(conn).value()});
    sleep_seconds(0.02);  // pin arrival order
  }

  const Stopwatch watch;
  std::vector<std::thread> threads;
  for (auto& w : waiters) {
    threads.emplace_back([&w, &watch] {
      auto result = recv_solve_result(w.conn, 8.0);
      w.done_at = watch.elapsed();
      w.ok = result.ok() &&
             result.value().error_code == static_cast<std::uint16_t>(ErrorCode::kOk);
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(long_job.wait().ok());

  for (const auto& w : waiters) EXPECT_TRUE(w.ok);
  // B before C before A.
  EXPECT_LT(waiters[1].done_at, waiters[2].done_at);
  EXPECT_LT(waiters[2].done_at, waiters[0].done_at);
  conservation::expect_conserved(*cluster.value(), tally);
}

// ---- acceptance (a): goodput under 3x offered load ----

// Under 3x the measured single-pool capacity with per-call deadlines, the
// admission queue must keep goodput (in-deadline successes per second) at
// >= 85% of capacity, and no successful call may finish past its budget.
TEST(OverloadTest, GoodputSurvivesThreeTimesOfferedLoad) {
  auto cluster = single_server_cluster(/*rating=*/1000.0, /*max_queue=*/64, {});
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();

  // Measure capacity with a short closed-loop run: sequential 0.1s jobs,
  // including the full client/agent/transfer overhead per call.
  auto warm = cluster.value()->make_client();
  const int warm_jobs = 8;
  const Stopwatch cap_watch;
  for (int i = 0; i < warm_jobs; ++i) {
    auto out = warm.netsl("simwork", {DataObject(std::int64_t{100})});
    ASSERT_TRUE(out.ok()) << out.error().to_string();
  }
  const double capacity = warm_jobs / cap_watch.elapsed();

  client::ClientConfig cc;
  cc.agents = {cluster.value()->agent_endpoint()};
  cc.io_timeout_s = 10.0;
  cc.deadline_s = 0.5;
  client::NetSolveClient budgeted(cc);

  // Open-loop arrivals at 3x capacity for a 3s window.
  const double rate = 3.0 * capacity;
  const double window_s = 3.0;
  const int n = static_cast<int>(rate * window_s);
  std::vector<client::RequestHandle> handles;
  handles.reserve(static_cast<std::size_t>(n));
  const Stopwatch load_watch;
  for (int i = 0; i < n; ++i) {
    const double wait = i / rate - load_watch.elapsed();
    if (wait > 0.0) sleep_seconds(wait);
    handles.push_back(budgeted.netsl_nb("simwork", {DataObject(std::int64_t{100})}));
  }

  int successes = 0;
  for (auto& h : handles) {
    auto out = h.wait();
    if (!out.ok()) continue;
    ++successes;
    // No admitted-then-completed job finishes past its deadline (small
    // scheduling slack for the final client-side bookkeeping).
    EXPECT_LE(h.stats().total_seconds, cc.deadline_s + 0.05);
  }
  // Goodput over the offered-load window: arrivals stop at window_s, and the
  // post-window drain (failing calls waiting out their budgets) would only
  // add idle denominator time.
  const double goodput = successes / window_s;
  EXPECT_GE(goodput, 0.85 * capacity)
      << "goodput " << goodput << "/s vs capacity " << capacity << "/s (" << successes
      << "/" << n << " in-deadline)";

  // The overload actually engaged the control plane.
  const auto& server = cluster.value()->server(0);
  EXPECT_GE(server.shed_admission() + server.shed_dequeue(), 1u);
  conservation::expect_conserved(*cluster.value(), tally);
}

// ---- acceptance (b): per-client fairness ----

// One heavy client at 10x a light client's rate must not starve it: with
// quotas on, the light client's success rate stays >= 95%.
TEST(OverloadTest, HeavyClientCannotStarveLightClient) {
  server::AdmissionConfig admission;
  admission.quota_fraction = 0.25;  // 2 of the 8 queue slots per client
  auto cluster = single_server_cluster(/*rating=*/1000.0, /*max_queue=*/8, admission);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();

  const auto honored_before = metrics::counter("client.retry_after_honored_total").value();

  client::ClientConfig base;
  base.agents = {cluster.value()->agent_endpoint()};
  base.io_timeout_s = 10.0;
  base.deadline_s = 1.0;
  client::ClientConfig light_cc = base;
  light_cc.client_id = 0x11;
  client::ClientConfig heavy_cc = base;
  heavy_cc.client_id = 0x22;
  client::NetSolveClient light(light_cc);
  client::NetSolveClient heavy(heavy_cc);

  // Light: 5/s for 4s. Heavy: 50/s for 4s — 10x the rate, and together
  // ~2.75x the pool's ~20 jobs/s capacity (0.05s jobs, one worker).
  const auto drive = [](client::NetSolveClient& client, double rate, int jobs,
                        std::vector<client::RequestHandle>& out) {
    const Stopwatch watch;
    for (int i = 0; i < jobs; ++i) {
      const double wait = i / rate - watch.elapsed();
      if (wait > 0.0) sleep_seconds(wait);
      out.push_back(client.netsl_nb("simwork", {DataObject(std::int64_t{50})}));
    }
  };
  std::vector<client::RequestHandle> light_handles;
  std::vector<client::RequestHandle> heavy_handles;
  light_handles.reserve(20);
  heavy_handles.reserve(200);
  std::thread heavy_thread(
      [&] { drive(heavy, /*rate=*/50.0, /*jobs=*/200, heavy_handles); });
  drive(light, /*rate=*/5.0, /*jobs=*/20, light_handles);
  heavy_thread.join();

  int light_ok = 0;
  for (auto& h : light_handles) light_ok += h.wait().ok() ? 1 : 0;
  int heavy_ok = 0;
  for (auto& h : heavy_handles) heavy_ok += h.wait().ok() ? 1 : 0;

  EXPECT_GE(light_ok, 19) << "light client success rate fell below 95% ("
                          << light_ok << "/20; heavy got " << heavy_ok << "/200)";
  // The quota actually engaged against the heavy client...
  EXPECT_GE(cluster.value()->server(0).shed_quota(), 1u);
  // ...and its retry_after hints were honored by the client backoff.
  EXPECT_GT(metrics::counter("client.retry_after_honored_total").value(), honored_before);
  conservation::expect_conserved(*cluster.value(), tally);
}

// ---- CoDel sojourn shedder + AIMD concurrency limit ----

// Sustained pressure with no deadlines: the CoDel shedder must start
// dropping once sojourn stays above target, and the AIMD limit must back
// off below the static worker count on overload signals.
TEST(OverloadTest, CodelShedsAndAimdBacksOffUnderSustainedPressure) {
  server::AdmissionConfig admission;
  admission.codel_target_s = 0.05;
  admission.codel_interval_s = 0.1;
  admission.aimd = true;
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(1, /*workers=*/2);
  config.servers[0].slowdown_mode = server::SlowdownMode::kSleep;
  config.servers[0].max_queue = 64;
  config.servers[0].admission = admission;
  config.rating_base = 1000.0;
  config.io_timeout_s = 10.0;
  auto cluster = testkit::TestCluster::start(std::move(config));
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();
  auto& server = cluster.value()->server(0);
  EXPECT_EQ(server.concurrency_limit(), 2);
  const auto backoffs_before = metrics::counter("server.aimd_backoff_total").value();

  // Flood: 40 undeadlined 0.1s jobs against ~20 jobs/s of capacity. Queue
  // sojourn blows through the 50ms target almost immediately.
  auto client = cluster.value()->make_client();
  std::vector<client::RequestHandle> handles;
  handles.reserve(40);
  for (int i = 0; i < 40; ++i) {
    handles.push_back(client.netsl_nb("simwork", {DataObject(std::int64_t{100})}));
  }

  EXPECT_TRUE(eventually([&] { return server.shed_codel() >= 1; }, 8.0))
      << "CoDel never shed under sustained queue pressure";
  // The instantaneous limit recovers within one service time (one success at
  // the floor restores it), so assert the monotonic backoff count instead of
  // racing a poll against the oscillation.
  EXPECT_TRUE(eventually(
      [&] { return metrics::counter("server.aimd_backoff_total").value() > backoffs_before; },
      8.0))
      << "AIMD never backed off the concurrency limit";

  for (auto& h : handles) (void)h.wait();  // calls may fail; drain them all

  // With the pressure gone, additive increase restores the full worker count.
  EXPECT_TRUE(eventually([&] { return server.concurrency_limit() == 2; }, 5.0))
      << "AIMD never recovered after the flood drained";

  auto snap = cluster.value()->scrape_server_metrics(0, "server.");
  ASSERT_TRUE(snap.ok());
  const auto* codel = snap.value().find("server.shed_codel_total");
  ASSERT_NE(codel, nullptr);
  EXPECT_GE(codel->count, 1u);
  const auto* sojourn = snap.value().find("server.queue_sojourn_s");
  ASSERT_NE(sojourn, nullptr);
  EXPECT_GE(sojourn->count, 1u);
  conservation::expect_conserved(*cluster.value(), tally);
}

// ---- the wait queue owns its jobs ----

// One single-worker server rated 500 Mflop/s that sleeps its simwork:
// simwork(m) takes m / 500 seconds.
Result<std::unique_ptr<testkit::TestCluster>> one_worker_cluster(double io_timeout_s) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(1, /*workers=*/1);
  config.servers[0].slowdown_mode = server::SlowdownMode::kSleep;
  config.rating_base = 500.0;
  config.io_timeout_s = io_timeout_s;
  return testkit::TestCluster::start(std::move(config));
}

// 300 solves pipelined over one connection to a one-worker server: one runs
// and the queue holds the rest, none of them on a thread. The handler pool
// keeps its workers + 4 threads, the reported workload counts every job,
// and control messages are answered at once instead of waiting behind
// queued solves in the pool's FIFO.
TEST(OverloadTest, QueuedSolvesHoldNoThread) {
  constexpr std::uint64_t kJobs = 300;
  constexpr std::size_t kPoolThreads = 1 + 4;  // workers + 4
  auto cluster = one_worker_cluster(/*io_timeout_s=*/10.0);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();
  auto& server = cluster.value()->server(0);
  const net::Endpoint endpoint = server.endpoint();
  const std::size_t settled = settled_thread_count();

  // simwork(1500) sleeps 3 s, so no job ends while the test looks.
  auto conn = net::TcpConnection::connect(endpoint);
  ASSERT_TRUE(conn.ok()) << conn.error().to_string();
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    ASSERT_TRUE(net::send_message(conn.value(),
                                  static_cast<std::uint16_t>(proto::MessageType::kSolveRequest),
                                  encode_solve(id, 1500))
                    .ok());
  }
  EXPECT_TRUE(eventually([&] { return server.current_workload() == kJobs; }))
      << "workload " << server.current_workload() << " of " << kJobs << " jobs";
  EXPECT_LE(thread_count(), settled + kPoolThreads);

  const Stopwatch cancel_watch;
  auto ack = client::cancel_request(endpoint, kJobs);
  const double cancel_s = cancel_watch.elapsed();
  ASSERT_TRUE(ack.ok()) << ack.error().to_string();
  EXPECT_EQ(ack.value().outcome, proto::CancelOutcome::kQueued);
  EXPECT_LT(cancel_s, 0.25) << "CANCEL waited behind queued solves";

  auto ping_conn = net::TcpConnection::connect(endpoint);
  ASSERT_TRUE(ping_conn.ok()) << ping_conn.error().to_string();
  const Stopwatch ping_watch;
  ASSERT_TRUE(net::send_message(ping_conn.value(),
                                static_cast<std::uint16_t>(proto::MessageType::kPing), {})
                  .ok());
  auto pong = net::recv_message(ping_conn.value(), 5.0);
  const double ping_s = ping_watch.elapsed();
  ASSERT_TRUE(pong.ok()) << pong.error().to_string();
  EXPECT_EQ(pong.value().type, static_cast<std::uint16_t>(proto::MessageType::kPong));
  EXPECT_LT(ping_s, 0.25) << "PING waited behind queued solves";

  // Cancel the rest; every job answers on the connection it came in on.
  for (std::uint64_t id = 1; id < kJobs; ++id) {
    ASSERT_TRUE(client::cancel_request(endpoint, id).ok());
  }
  std::map<std::uint64_t, ErrorCode> replies;
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    auto result = recv_solve_result(conn.value(), 10.0);
    ASSERT_TRUE(result.ok()) << result.error().to_string() << " after " << i << " replies";
    replies[result.value().request_id] = static_cast<ErrorCode>(result.value().error_code);
  }
  EXPECT_EQ(replies.size(), kJobs);
  EXPECT_EQ(replies[kJobs], ErrorCode::kCancelled);
  EXPECT_EQ(server.cancelled_queued() + server.cancelled_running() + server.completed(), kJobs);
  conservation::expect_conserved(*cluster.value(), tally);
}

// A queued job keeps its connection open through the reactor's idle sweep:
// the connection stays silent longer than the idle timeout (5 s here) while
// its job waits behind a 6 s one, and the reply still arrives on it.
TEST(OverloadTest, QueuedReplyOutlivesIdleTimeout) {
  auto cluster = one_worker_cluster(/*io_timeout_s=*/1.0);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();
  const net::Endpoint endpoint = cluster.value()->server(0).endpoint();
  const auto solve = static_cast<std::uint16_t>(proto::MessageType::kSolveRequest);

  auto conn_a = net::TcpConnection::connect(endpoint);
  ASSERT_TRUE(conn_a.ok()) << conn_a.error().to_string();
  ASSERT_TRUE(net::send_message(conn_a.value(), solve, encode_solve(1, 3000)).ok());
  auto conn_b = net::TcpConnection::connect(endpoint);
  ASSERT_TRUE(conn_b.ok()) << conn_b.error().to_string();
  ASSERT_TRUE(net::send_message(conn_b.value(), solve, encode_solve(2, 5)).ok());

  auto result_b = recv_solve_result(conn_b.value(), 15.0);
  ASSERT_TRUE(result_b.ok()) << result_b.error().to_string();
  EXPECT_EQ(result_b.value().request_id, 2u);
  EXPECT_EQ(result_b.value().error_code, 0u);
  EXPECT_GT(result_b.value().queue_seconds, 5.0);
  auto result_a = recv_solve_result(conn_a.value(), 5.0);
  ASSERT_TRUE(result_a.ok()) << result_a.error().to_string();
  EXPECT_EQ(result_a.value().error_code, 0u);
  conservation::expect_conserved(*cluster.value(), tally);
}

}  // namespace
}  // namespace ns
