// Metrics registry semantics and the METRICS_QUERY wire path.
//
// Covers the contracts DESIGN.md §10 promises: concurrent updates are lost-
// update-free, histogram quantiles sit within one log bucket (a factor of
// kBucketGrowth) of the true sample quantile, snapshots round-trip through
// proto::MetricsDump byte-for-byte, and a live cluster answers METRICS_QUERY
// with its registry contents.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "proto/messages.hpp"
#include "serial/codec.hpp"
#include "testkit/cluster.hpp"

using namespace ns;

TEST(Metrics, ConcurrentUpdatesAreExact) {
  metrics::Registry reg;  // local instance: isolated from the process registry
  auto& counter = reg.counter("test.concurrent_total");
  auto& gauge = reg.gauge("test.concurrent_gauge");
  auto& hist = reg.histogram("test.concurrent_s");

  constexpr int kThreads = 8;
  constexpr int kOps = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        counter.inc();
        gauge.add(1.0);
        hist.observe(1.0);
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto expected = static_cast<std::uint64_t>(kThreads) * kOps;
  EXPECT_EQ(counter.value(), expected);
  // add() is a CAS loop; every sample is 1.0, so the sums are exact doubles.
  EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(expected));
  EXPECT_EQ(hist.count(), expected);
  const auto snap = reg.snapshot();
  const auto* entry = snap.find("test.concurrent_s");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->count, expected);
  EXPECT_DOUBLE_EQ(entry->value, static_cast<double>(expected));
  EXPECT_DOUBLE_EQ(entry->min, 1.0);
  EXPECT_DOUBLE_EQ(entry->max, 1.0);
}

TEST(Metrics, HistogramPercentileWithinOneBucketOfReference) {
  metrics::Registry reg;
  auto& hist = reg.histogram("test.latency_s");
  // Deterministic sample set spread across ~3 decades, all well above
  // kBucketMin so the bucket-0 clamp never applies.
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) {
    samples.push_back(5e-4 * i);
  }
  for (const double v : samples) hist.observe(v);
  std::sort(samples.begin(), samples.end());

  for (const double q : {0.50, 0.95, 0.99}) {
    // Nearest-rank reference quantile over the raw samples.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const double reference = samples[rank - 1];
    const double got = hist.percentile(q);
    // The histogram reports the holding bucket's upper bound: never below
    // the true quantile, never more than one bucket (kBucketGrowth) above.
    EXPECT_GE(got, reference * (1.0 - 1e-9)) << "q=" << q;
    EXPECT_LE(got, reference * metrics::kBucketGrowth * (1.0 + 1e-9)) << "q=" << q;
  }
  // q=0 degenerates to the minimum sample's bucket; empty histograms report 0.
  EXPECT_GE(hist.percentile(0.0), samples.front() * (1.0 - 1e-9));
  EXPECT_LE(hist.percentile(0.0), samples.front() * metrics::kBucketGrowth * (1.0 + 1e-9));
  EXPECT_DOUBLE_EQ(metrics::Histogram{}.percentile(0.5), 0.0);
}

TEST(Metrics, SnapshotPrefixFilters) {
  metrics::Registry reg;
  reg.counter("alpha.one_total").inc();
  reg.gauge("alpha.level").set(3.0);
  reg.counter("beta.two_total").inc();

  const auto snap = reg.snapshot("alpha.");
  EXPECT_EQ(snap.entries.size(), 2u);
  EXPECT_NE(snap.find("alpha.one_total"), nullptr);
  EXPECT_NE(snap.find("alpha.level"), nullptr);
  EXPECT_EQ(snap.find("beta.two_total"), nullptr);
}

TEST(Metrics, SnapshotRoundTripsThroughMetricsDump) {
  metrics::Registry reg;
  reg.counter("rt.events_total").inc(7);
  reg.gauge("rt.depth").set(2.5);
  auto& hist = reg.histogram("rt.wait_s");
  for (int i = 1; i <= 100; ++i) hist.observe(1e-3 * i);

  const metrics::Snapshot snap = reg.snapshot();
  proto::MetricsDump dump;
  dump.snapshot = snap;
  serial::Encoder enc;
  dump.encode(enc);
  const serial::Bytes bytes = enc.take();
  serial::Decoder dec(bytes);
  auto decoded = proto::MetricsDump::decode(dec);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();

  // Both dump formats are deterministic, so equality is byte-for-byte.
  EXPECT_EQ(decoded.value().snapshot.to_json(), snap.to_json());
  EXPECT_EQ(decoded.value().snapshot.to_text(), snap.to_text());
  const auto* entry = decoded.value().snapshot.find("rt.wait_s");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->count, 100u);
  EXPECT_DOUBLE_EQ(entry->percentile(0.95), snap.find("rt.wait_s")->percentile(0.95));
}

TEST(Metrics, MetricsQueryScrapesLiveCluster) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(2, /*workers=*/1);
  config.rating_base = 1000.0;
  auto cluster = testkit::TestCluster::start(std::move(config));
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();

  auto client = cluster.value()->make_client();
  client::CallStats stats;
  auto out = client.netsl("simwork", {dsl::DataObject(std::int64_t{5})}, &stats);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_NE(stats.trace_id, trace::kNoTrace);
  EXPECT_FALSE(stats.spans.empty());

  // Scrape through the agent's connection handler. The in-process cluster
  // shares one registry, so client-, agent-, and server-side instruments
  // all appear in one dump.
  auto snap = cluster.value()->scrape_agent_metrics();
  ASSERT_TRUE(snap.ok()) << snap.error().to_string();
  const auto* calls = snap.value().find("client.calls_total");
  ASSERT_NE(calls, nullptr);
  EXPECT_GE(calls->count, 1u);
  const auto* requests = snap.value().find("server.requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(requests->count, 1u);
  const auto* compute = snap.value().find("span.server.compute_s");
  ASSERT_NE(compute, nullptr);
  EXPECT_GE(compute->count, 1u);
  // The agent refreshes its per-server directory gauges at scrape time.
  const auto* alive = snap.value().find("agent.alive_servers");
  ASSERT_NE(alive, nullptr);
  EXPECT_GE(alive->value, 1.0);
  const auto* breaker = snap.value().find("agent.server.server0.breaker");
  ASSERT_NE(breaker, nullptr);

  // Scraping a server exercises the same wire path through the server's
  // handler, with the prefix filter applied on the far side.
  auto server_snap = cluster.value()->scrape_server_metrics(0, "server.");
  ASSERT_TRUE(server_snap.ok()) << server_snap.error().to_string();
  ASSERT_FALSE(server_snap.value().entries.empty());
  for (const auto& entry : server_snap.value().entries) {
    EXPECT_EQ(entry.name.rfind("server.", 0), 0u) << entry.name;
  }
}

namespace {

std::uint64_t hist_count(const std::string& name) { return metrics::histogram(name).count(); }
std::uint64_t counter_value(const std::string& name) { return metrics::counter(name).value(); }

std::vector<dsl::DataObject> ddot_args() {
  std::vector<double> x(64), y(64);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<double>(i % 7);
    y[i] = static_cast<double>(i % 5);
  }
  return {dsl::DataObject(std::move(x)), dsl::DataObject(std::move(y))};
}

}  // namespace

// Each span is recorded once, in the process that measured it: the client
// keeps the agent's and server's hops in CallStats but does not fold them
// into the registry a second time.
TEST(Metrics, EachSpanIsRecordedOncePerCall) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(2, /*workers=*/1);
  config.rating_base = 1000.0;
  auto cluster = testkit::TestCluster::start(std::move(config));
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  auto client = cluster.value()->make_client();

  const std::vector<std::string> spans = {"span.server.compute_s", "span.server.queue_wait_s",
                                          "span.agent.schedule_s", "span.client.query_s",
                                          "span.client.attempt_s"};
  std::vector<std::uint64_t> before;
  for (const auto& name : spans) before.push_back(hist_count(name));
  constexpr int kCalls = 20;
  for (int i = 0; i < kCalls; ++i) {
    client::CallStats stats;
    auto out = client.netsl("simwork", {dsl::DataObject(std::int64_t{2})}, &stats);
    ASSERT_TRUE(out.ok()) << out.error().to_string();
    ASSERT_EQ(stats.attempts, 1);
    // The stats object still carries every hop, remote ones included.
    int remote = 0;
    for (const auto& span : stats.spans) {
      remote += span.name == "server.compute" || span.name == "server.queue_wait" ||
                span.name == "agent.schedule";
    }
    EXPECT_EQ(remote, 3);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(hist_count(spans[i]) - before[i], static_cast<std::uint64_t>(kCalls)) << spans[i];
  }
}

// Two servers in one process: each keeps its own counts, and together they
// add up to the process-wide registry counter. A restarted incarnation
// starts from zero while the registry total keeps counting.
TEST(Metrics, ServerCountersArePerInstanceAndSumToTheRegistry) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(2, /*workers=*/1);
  config.rating_base = 1000.0;
  auto started = testkit::TestCluster::start(std::move(config));
  ASSERT_TRUE(started.ok()) << started.error().to_string();
  auto& cluster = *started.value();
  auto client = cluster.make_client();

  const auto run_calls = [&](int calls, std::map<std::string, std::uint64_t>& per_server) {
    for (int i = 0; i < calls; ++i) {
      client::CallStats stats;
      auto out = client.netsl("simwork", {dsl::DataObject(std::int64_t{2})}, &stats);
      ASSERT_TRUE(out.ok()) << out.error().to_string();
      ++per_server[stats.server_name];
    }
  };

  const std::uint64_t completed0 = counter_value("server.completed_total");
  const std::uint64_t requests0 = counter_value("server.requests_total");
  std::map<std::string, std::uint64_t> served;
  run_calls(30, served);
  std::uint64_t completed_sum = 0;
  std::uint64_t requests_sum = 0;
  for (std::size_t i = 0; i < cluster.server_count(); ++i) {
    const auto& s = cluster.server(i);
    EXPECT_EQ(s.completed(), served[s.name()]) << s.name();
    EXPECT_EQ(s.requests(), served[s.name()]) << s.name();
    completed_sum += s.completed();
    requests_sum += s.requests();
  }
  EXPECT_EQ(completed_sum, 30u);
  EXPECT_EQ(counter_value("server.completed_total") - completed0, completed_sum);
  EXPECT_EQ(counter_value("server.requests_total") - requests0, requests_sum);

  const std::uint64_t total_before_restart = counter_value("server.completed_total");
  ASSERT_TRUE(cluster.restart_server(1).ok());
  EXPECT_EQ(cluster.server(1).completed(), 0u) << "a new incarnation counts from zero";
  EXPECT_EQ(counter_value("server.completed_total"), total_before_restart)
      << "restarting a server must not drop the registry total";

  const std::uint64_t server0_before = cluster.server(0).completed();
  std::map<std::string, std::uint64_t> after;
  run_calls(10, after);
  EXPECT_EQ(cluster.server(0).completed() - server0_before, after["server0"]);
  EXPECT_EQ(cluster.server(1).completed(), after["server1"]);
  EXPECT_EQ(counter_value("server.completed_total") - total_before_restart, 10u);
}

// Instrumentation cheap enough to leave on: a steady-state netsl binds every
// instrument it touches, in the client, the agent, the pool and the server.
// The one lookup left is the per-problem attempt histogram, once per call.
TEST(Metrics, SteadyStateNetslDoesAtMostOneRegistryLookup) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(2, /*workers=*/2);
  config.rating_base = 1000.0;
  auto cluster = testkit::TestCluster::start(std::move(config));
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  auto client = cluster.value()->make_client();
  const auto args = ddot_args();
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(client.netsl("ddot", args).ok());  // warm-up

  constexpr std::uint64_t kCalls = 200;
  const std::uint64_t lookups0 = metrics::Registry::instance().lookups();
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    auto out = client.netsl("ddot", args);
    ASSERT_TRUE(out.ok()) << out.error().to_string();
  }
  const std::uint64_t lookups = metrics::Registry::instance().lookups() - lookups0;
  EXPECT_LE(lookups, kCalls) << "registry lookups per netsl: "
                             << static_cast<double>(lookups) / kCalls;
}
