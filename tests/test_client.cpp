// Client-library behaviour: call statistics, configuration knobs
// (max_candidates, metric reporting), and policy-output invariants checked
// end-to-end.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "agent/policy.hpp"
#include "common/clock.hpp"
#include "linalg/blas.hpp"
#include "testkit/cluster.hpp"

namespace ns {
namespace {

using dsl::DataObject;

TEST(ClientStatsTest, ByteAccountingMatchesArguments) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(1);
  config.rating_base = 500.0;
  auto cluster = testkit::TestCluster::start(std::move(config));
  ASSERT_TRUE(cluster.ok());
  auto client = cluster.value()->make_client();

  Rng rng(1);
  const auto a = linalg::Matrix::random_diag_dominant(32, rng);
  const auto b = linalg::random_vector(32, rng);
  const std::vector<DataObject> args = {DataObject(a), DataObject(b)};

  client::CallStats stats;
  ASSERT_TRUE(client.netsl("dgesv", args, &stats).ok());
  EXPECT_EQ(stats.input_bytes, dsl::args_byte_size(args));
  // Output: one 32-vector => 4 (count) + 1 (tag) + 4 (len) + 256 bytes.
  EXPECT_EQ(stats.output_bytes, 4u + 1u + 4u + 256u);
  EXPECT_GE(stats.total_seconds, stats.exec_seconds);
  EXPECT_NEAR(stats.total_seconds, stats.exec_seconds + stats.transfer_seconds,
              stats.total_seconds * 0.5 + 0.01);
}

TEST(ClientConfigTest, MaxCandidatesLimitsAgentReply) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(5);
  config.rating_base = 500.0;
  auto cluster = testkit::TestCluster::start(std::move(config));
  ASSERT_TRUE(cluster.ok());

  client::ClientConfig cc;
  cc.agents = {cluster.value()->agent_endpoint()};
  cc.max_candidates = 2;
  client::NetSolveClient client(cc);
  auto list = client.query("ddot", {DataObject(linalg::Vector{1.0}),
                                    DataObject(linalg::Vector{2.0})});
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value().candidates.size(), 2u);
}

TEST(ClientConfigTest, MetricReportingDisabledKeepsDefaults) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(1);
  config.rating_base = 500.0;
  auto cluster = testkit::TestCluster::start(std::move(config));
  ASSERT_TRUE(cluster.ok());

  client::ClientConfig cc;
  cc.agents = {cluster.value()->agent_endpoint()};
  cc.report_metrics = false;
  client::NetSolveClient client(cc);

  const auto before = cluster.value()->agent().registry().all().at(0);
  Rng rng(2);
  const auto a = linalg::Matrix::random(128, 128, rng);
  const auto x = linalg::random_vector(128, rng);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.call("dgemv", a, x).ok());
  }
  sleep_seconds(0.05);
  const auto after = cluster.value()->agent().registry().all().at(0);
  EXPECT_DOUBLE_EQ(after.bandwidth_Bps, before.bandwidth_Bps)
      << "no metric reports -> no EWMA movement";
  EXPECT_DOUBLE_EQ(after.latency_s, before.latency_s);
}

TEST(ClientConfigTest, FailureReportingDisabledKeepsServerAlive) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(2);
  config.servers[0].failure.mode = server::FailureSpec::Mode::kErrorReply;
  config.servers[0].failure.probability = 1.0;
  config.rating_base = 500.0;
  auto cluster = testkit::TestCluster::start(std::move(config));
  ASSERT_TRUE(cluster.ok());

  client::ClientConfig cc;
  cc.agents = {cluster.value()->agent_endpoint()};
  cc.report_failures = false;
  client::NetSolveClient client(cc);
  ASSERT_TRUE(client.call("ddot", linalg::Vector{1.0}, linalg::Vector{2.0}).ok());
  EXPECT_EQ(cluster.value()->agent().registry().alive_count(), 2u)
      << "without reports the agent cannot blacklist";
}

// ---- policy output invariants (property-style, all policies) ----

class PolicyInvariantTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PolicyInvariantTest, RankingIsAPermutationWithPredictions) {
  auto policy = agent::make_policy(GetParam());
  ASSERT_TRUE(policy.ok());

  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
    std::vector<agent::ServerRecord> pool(n);
    std::set<proto::ServerId> ids;
    for (std::size_t i = 0; i < n; ++i) {
      pool[i].id = static_cast<proto::ServerId>(i + 1);
      // Not "s" + to_string(): GCC 12 at -O3 reports a false -Wrestrict on it.
      pool[i].name = std::string("s").append(std::to_string(i));
      pool[i].mflops = rng.uniform(50, 2000);
      pool[i].workload = rng.uniform(0, 5);
      pool[i].latency_s = rng.uniform(0, 0.05);
      pool[i].bandwidth_Bps = rng.uniform(1e6, 1e9);
      ids.insert(pool[i].id);
    }
    agent::RequestProfile profile;
    profile.flops = rng.uniform(1e6, 1e10);
    profile.input_bytes = static_cast<std::uint64_t>(rng.uniform(0, 1e7));

    const auto ranked = policy.value()->rank(pool, profile);
    ASSERT_EQ(ranked.size(), n);
    std::set<proto::ServerId> ranked_ids;
    for (const auto& c : ranked) {
      ranked_ids.insert(c.server_id);
      EXPECT_GT(c.predicted_seconds, 0.0);
      EXPECT_TRUE(std::isfinite(c.predicted_seconds));
    }
    EXPECT_EQ(ranked_ids, ids) << "ranking must be a permutation";
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyInvariantTest,
                         ::testing::Values("mct", "round_robin", "random", "least_loaded"));

TEST(PolicyInvariantTest, MctOutputIsSortedByPrediction) {
  auto policy = agent::make_policy("mct");
  ASSERT_TRUE(policy.ok());
  Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<agent::ServerRecord> pool(6);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      pool[i].id = static_cast<proto::ServerId>(i + 1);
      pool[i].mflops = rng.uniform(50, 2000);
      pool[i].workload = rng.uniform(0, 5);
      pool[i].bandwidth_Bps = 1e9;
    }
    agent::RequestProfile profile;
    profile.flops = 1e9;
    const auto ranked = policy.value()->rank(pool, profile);
    EXPECT_TRUE(std::is_sorted(ranked.begin(), ranked.end(),
                               [](const auto& a, const auto& b) {
                                 return a.predicted_seconds < b.predicted_seconds;
                               }));
  }
}

}  // namespace
}  // namespace ns
