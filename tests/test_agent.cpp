// Tests for ns_agent: server registry semantics, the completion-time
// predictor, all four selection policies, and the agent service loop over
// real sockets.
#include <gtest/gtest.h>

#include <map>

#include "agent/agent.hpp"
#include "agent/policy.hpp"
#include "agent/predictor.hpp"
#include "agent/registry.hpp"
#include "common/clock.hpp"
#include "net/transport.hpp"

namespace ns::agent {
namespace {

dsl::ProblemSpec cubic_spec(const std::string& name = "solve") {
  dsl::ProblemSpec spec;
  spec.name = name;
  spec.inputs = {{"A", dsl::DataType::kMatrix}};
  spec.outputs = {{"x", dsl::DataType::kVector}};
  spec.complexity = dsl::ComplexityModel{2.0 / 3.0, 3.0};
  return spec;
}

proto::RegisterServer make_registration(const std::string& name, std::uint16_t port,
                                        double mflops,
                                        const std::vector<std::string>& problems = {"solve"}) {
  proto::RegisterServer reg;
  reg.server_name = name;
  reg.endpoint = {"127.0.0.1", port};
  reg.mflops = mflops;
  for (const auto& p : problems) reg.problems.push_back(cubic_spec(p));
  return reg;
}

// ---- ServerRegistry ----

TEST(RegistryTest, AddAssignsDistinctIds) {
  ServerRegistry registry;
  const auto id1 = registry.add(make_registration("a", 1000, 100));
  const auto id2 = registry.add(make_registration("b", 1001, 200));
  EXPECT_NE(id1, id2);
  EXPECT_EQ(registry.alive_count(), 2u);
}

TEST(RegistryTest, ReregistrationRevivesSameId) {
  ServerRegistry registry;
  const auto id = registry.add(make_registration("a", 1000, 100));
  registry.record_failure(id);  // default max_failures = 1 -> dead
  EXPECT_EQ(registry.alive_count(), 0u);
  const auto id2 = registry.add(make_registration("a", 1000, 150));
  EXPECT_EQ(id2, id);
  EXPECT_EQ(registry.alive_count(), 1u);
  EXPECT_DOUBLE_EQ(registry.find(id)->mflops, 150.0);
  EXPECT_EQ(registry.find(id)->consecutive_failures, 0);
}

TEST(RegistryTest, CandidatesFilterByProblemAndLiveness) {
  ServerRegistry registry;
  const auto id1 = registry.add(make_registration("a", 1000, 100, {"solve"}));
  registry.add(make_registration("b", 1001, 100, {"other"}));
  EXPECT_EQ(registry.candidates_for("solve").size(), 1u);
  EXPECT_EQ(registry.candidates_for("other").size(), 1u);
  EXPECT_EQ(registry.candidates_for("missing").size(), 0u);
  registry.record_failure(id1);
  EXPECT_EQ(registry.candidates_for("solve").size(), 0u);
}

TEST(RegistryTest, FailureThresholdConfigurable) {
  RegistryConfig config;
  config.max_failures = 3;
  ServerRegistry registry(config);
  const auto id = registry.add(make_registration("a", 1000, 100));
  registry.record_failure(id);
  registry.record_failure(id);
  EXPECT_EQ(registry.alive_count(), 1u) << "below threshold";
  registry.record_failure(id);
  EXPECT_EQ(registry.alive_count(), 0u);
}

TEST(RegistryTest, SuccessResetsFailureStreak) {
  RegistryConfig config;
  config.max_failures = 2;
  ServerRegistry registry(config);
  const auto id = registry.add(make_registration("a", 1000, 100));
  registry.record_failure(id);
  registry.record_metrics(id, 1 << 20, 0.1);  // success clears the streak
  registry.record_failure(id);
  EXPECT_EQ(registry.alive_count(), 1u);
}

TEST(RegistryTest, WorkloadReportUpdates) {
  ServerRegistry registry;
  const auto id = registry.add(make_registration("a", 1000, 100));
  proto::WorkloadReport report;
  report.server_id = id;
  report.workload = 3.5;
  report.completed = 17;
  registry.update_workload(report);
  EXPECT_DOUBLE_EQ(registry.find(id)->workload, 3.5);
  EXPECT_EQ(registry.find(id)->completed, 17u);
  // Unknown id must be ignored, not crash.
  report.server_id = 9999;
  registry.update_workload(report);
}

TEST(RegistryTest, MetricsUpdateBandwidthEwma) {
  RegistryConfig config;
  config.default_bandwidth_Bps = 10e6;
  config.default_latency_s = 0.0;
  config.ewma_alpha = 0.5;
  ServerRegistry registry(config);
  const auto id = registry.add(make_registration("a", 1000, 100));
  // 1 MiB in 0.1 s => ~10.5 MB/s implied; EWMA pulls halfway there.
  registry.record_metrics(id, 1 << 20, 0.1);
  const double bw = registry.find(id)->bandwidth_Bps;
  EXPECT_GT(bw, 10e6);
  EXPECT_LT(bw, 11e6);
}

TEST(RegistryTest, SmallTransfersUpdateLatency) {
  RegistryConfig config;
  config.default_latency_s = 0.001;
  config.ewma_alpha = 1.0;  // take the measurement wholesale
  ServerRegistry registry(config);
  const auto id = registry.add(make_registration("a", 1000, 100));
  registry.record_metrics(id, 100, 0.05);
  EXPECT_DOUBLE_EQ(registry.find(id)->latency_s, 0.05);
}

TEST(RegistryTest, ZeroMetricsIgnored) {
  ServerRegistry registry;
  const auto id = registry.add(make_registration("a", 1000, 100));
  const double before = registry.find(id)->bandwidth_Bps;
  registry.record_metrics(id, 0, 0.1);
  registry.record_metrics(id, 100, 0.0);
  EXPECT_DOUBLE_EQ(registry.find(id)->bandwidth_Bps, before);
}

TEST(RegistryTest, StaleServersExpire) {
  RegistryConfig config;
  config.report_timeout_s = 0.05;
  ServerRegistry registry(config);
  registry.add(make_registration("a", 1000, 100));
  EXPECT_EQ(registry.alive_count(), 1u);
  sleep_seconds(0.08);
  EXPECT_EQ(registry.alive_count(), 0u);
}

TEST(RegistryTest, CatalogKeepsFirstSpec) {
  ServerRegistry registry;
  auto reg1 = make_registration("a", 1000, 100);
  reg1.problems[0].description = "first";
  auto reg2 = make_registration("b", 1001, 100);
  reg2.problems[0].description = "second";
  registry.add(reg1);
  registry.add(reg2);
  ASSERT_EQ(registry.catalog().size(), 1u);
  EXPECT_EQ(registry.problem_spec("solve")->description, "first");
  EXPECT_FALSE(registry.problem_spec("missing").has_value());
}

// ---- predictor ----

ServerRecord make_record(double mflops, double workload = 0.0, double latency = 0.0,
                         double bandwidth = 1e18) {
  ServerRecord r;
  r.id = 1;
  r.mflops = mflops;
  r.workload = workload;
  r.latency_s = latency;
  r.bandwidth_Bps = bandwidth;
  return r;
}

TEST(PredictorTest, PureComputeTerm) {
  // 1e9 flops at 100 Mflop/s = 10 s.
  RequestProfile profile;
  profile.flops = 1e9;
  EXPECT_NEAR(predict_seconds(make_record(100.0), profile), 10.0, 1e-9);
}

TEST(PredictorTest, WorkloadInflatesComputeTime) {
  RequestProfile profile;
  profile.flops = 1e9;
  const double idle = predict_seconds(make_record(100.0, 0.0), profile);
  const double busy = predict_seconds(make_record(100.0, 1.0), profile);
  EXPECT_NEAR(busy, 2.0 * idle, 1e-9) << "one running job halves the share";
}

TEST(PredictorTest, NetworkTerm) {
  RequestProfile profile;
  profile.input_bytes = 10'000'000;
  profile.output_bytes = 0;
  const auto r = make_record(100.0, 0.0, 0.5, 10e6);
  EXPECT_NEAR(predict_seconds(r, profile), 0.5 + 1.0, 1e-9);
}

TEST(PredictorTest, FullFormula) {
  RequestProfile profile;
  profile.flops = 2e8;
  profile.input_bytes = 5'000'000;
  profile.output_bytes = 5'000'000;
  const auto r = make_record(200.0, 1.0, 0.1, 10e6);
  // 0.1 + 10e6/10e6 + 2e8/(200e6/2) = 0.1 + 1 + 2 = 3.1
  EXPECT_NEAR(predict_seconds(r, profile), 3.1, 1e-9);
}

TEST(PredictorTest, DegenerateServersGetFinitePenalty) {
  RequestProfile profile;
  profile.flops = 1.0;
  profile.input_bytes = 1;
  const double t = predict_seconds(make_record(0.0, 0.0, 0.0, 0.0), profile);
  EXPECT_GT(t, 1e5);
  EXPECT_TRUE(std::isfinite(t));
}

TEST(PredictorTest, ProfileFromSpec) {
  const auto spec = cubic_spec();
  const auto profile = profile_request(spec, 100, 1000, 2000);
  EXPECT_NEAR(profile.flops, (2.0 / 3.0) * 1e6, 1.0);
  EXPECT_EQ(profile.input_bytes, 1000u);
  EXPECT_EQ(profile.output_bytes, 2000u);
}

TEST(PredictorTest, ZeroSizeHintClamped) {
  const auto profile = profile_request(cubic_spec(), 0, 0, 0);
  EXPECT_GT(profile.flops, 0.0);
}

// ---- policies ----

std::vector<ServerRecord> heterogeneous_pool() {
  std::vector<ServerRecord> pool;
  for (int i = 0; i < 4; ++i) {
    ServerRecord r;
    r.id = static_cast<proto::ServerId>(i + 1);
    // Not "s" + to_string(): GCC 12 at -O3 reports a false -Wrestrict on it.
    r.name = std::string("s").append(std::to_string(i + 1));
    r.mflops = 100.0 * (i + 1);  // s4 is fastest
    r.bandwidth_Bps = 1e18;
    pool.push_back(r);
  }
  return pool;
}

RequestProfile compute_profile() {
  RequestProfile p;
  p.flops = 1e9;
  return p;
}

TEST(PolicyTest, MctRanksByPredictedTime) {
  MinCompletionTimePolicy policy;
  const auto ranked = policy.rank(heterogeneous_pool(), compute_profile());
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_EQ(ranked[0].server_id, 4u) << "fastest first";
  EXPECT_EQ(ranked[3].server_id, 1u);
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].predicted_seconds, ranked[i].predicted_seconds);
  }
}

TEST(PolicyTest, MctPrefersIdleOverLoaded) {
  auto pool = heterogeneous_pool();
  pool[3].workload = 8.0;  // fastest server heavily loaded: 400/9 < 300
  MinCompletionTimePolicy policy;
  const auto ranked = policy.rank(pool, compute_profile());
  EXPECT_EQ(ranked[0].server_id, 3u) << "300 Mflops idle beats 400 Mflops with 8 jobs";
}

TEST(PolicyTest, MctAccountsForNetworkDistance) {
  auto pool = heterogeneous_pool();
  // Fastest server behind a slow link; large transfer dominates.
  pool[3].bandwidth_Bps = 1e5;
  pool[3].latency_s = 0.1;
  RequestProfile profile = compute_profile();
  profile.input_bytes = 10'000'000;
  MinCompletionTimePolicy policy;
  const auto ranked = policy.rank(pool, profile);
  EXPECT_NE(ranked[0].server_id, 4u);
}

TEST(PolicyTest, RoundRobinRotates) {
  RoundRobinPolicy policy;
  const auto pool = heterogeneous_pool();
  const auto profile = compute_profile();
  std::vector<proto::ServerId> firsts;
  for (int i = 0; i < 8; ++i) firsts.push_back(policy.rank(pool, profile)[0].server_id);
  EXPECT_EQ(firsts[0], firsts[4]);
  EXPECT_EQ(firsts[1], firsts[5]);
  std::set<proto::ServerId> distinct(firsts.begin(), firsts.begin() + 4);
  EXPECT_EQ(distinct.size(), 4u) << "each server leads once per cycle";
}

TEST(PolicyTest, RandomCoversAllServers) {
  RandomPolicy policy(7);
  const auto pool = heterogeneous_pool();
  const auto profile = compute_profile();
  std::map<proto::ServerId, int> lead_counts;
  for (int i = 0; i < 400; ++i) ++lead_counts[policy.rank(pool, profile)[0].server_id];
  ASSERT_EQ(lead_counts.size(), 4u);
  for (const auto& [id, count] : lead_counts) {
    EXPECT_GT(count, 50) << "server " << id << " starved";
  }
}

TEST(PolicyTest, LeastLoadedIgnoresSpeedUntilTied) {
  auto pool = heterogeneous_pool();
  pool[3].workload = 1.0;  // fastest busy
  LeastLoadedPolicy policy;
  const auto ranked = policy.rank(pool, compute_profile());
  EXPECT_EQ(ranked[0].server_id, 3u) << "highest-rated among idle";
  EXPECT_EQ(ranked.back().server_id, 4u) << "loaded server last";
}

TEST(PolicyTest, AllPoliciesFillPredictions) {
  const auto pool = heterogeneous_pool();
  const auto profile = compute_profile();
  RoundRobinPolicy rr;
  RandomPolicy rnd(3);
  LeastLoadedPolicy ll;
  for (auto* policy : std::initializer_list<SelectionPolicy*>{&rr, &rnd, &ll}) {
    for (const auto& c : policy->rank(pool, profile)) {
      EXPECT_GT(c.predicted_seconds, 0.0) << policy->name();
    }
  }
}

TEST(PolicyTest, EmptyPoolYieldsEmptyRanking) {
  MinCompletionTimePolicy policy;
  EXPECT_TRUE(policy.rank({}, compute_profile()).empty());
}

TEST(PolicyTest, FactoryByName) {
  for (const auto* name : {"mct", "round_robin", "random", "least_loaded"}) {
    auto policy = make_policy(name);
    ASSERT_TRUE(policy.ok()) << name;
    EXPECT_EQ(policy.value()->name(), name);
  }
  EXPECT_FALSE(make_policy("nonsense").ok());
}

// ---- agent service over sockets ----

class AgentServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AgentConfig config;
    auto agent = Agent::start(config);
    ASSERT_TRUE(agent.ok());
    agent_ = std::move(agent).value();
  }

  Result<net::Message> round_trip(proto::MessageType type, const serial::Bytes& payload) {
    auto conn = net::TcpConnection::connect(agent_->endpoint());
    if (!conn.ok()) return conn.error();
    auto st = net::send_message(conn.value(), static_cast<std::uint16_t>(type), payload);
    if (!st.ok()) return st.error();
    return net::recv_message(conn.value(), 5.0);
  }

  template <typename T>
  serial::Bytes encode(const T& msg) {
    serial::Encoder enc;
    msg.encode(enc);
    return enc.take();
  }

  std::unique_ptr<Agent> agent_;
};

TEST_F(AgentServiceTest, PingPong) {
  auto reply = round_trip(proto::MessageType::kPing, {});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().type, static_cast<std::uint16_t>(proto::MessageType::kPong));
}

TEST_F(AgentServiceTest, RegisterThenQuery) {
  auto ack = round_trip(proto::MessageType::kRegisterServer,
                        encode(make_registration("s1", 1234, 500)));
  ASSERT_TRUE(ack.ok());
  ASSERT_EQ(ack.value().type, static_cast<std::uint16_t>(proto::MessageType::kRegisterAck));

  proto::Query query;
  query.problem = "solve";
  query.size_hint = 100;
  query.input_bytes = 80000;
  auto reply = round_trip(proto::MessageType::kQuery, encode(query));
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.value().type, static_cast<std::uint16_t>(proto::MessageType::kServerList));
  serial::Decoder dec(reply.value().payload);
  auto list = proto::ServerList::decode(dec);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list.value().candidates.size(), 1u);
  EXPECT_EQ(list.value().candidates[0].server_name, "s1");
  EXPECT_EQ(list.value().candidates[0].endpoint.port, 1234);
  EXPECT_GT(list.value().candidates[0].predicted_seconds, 0.0);
}

TEST_F(AgentServiceTest, UnknownProblemErrorReply) {
  proto::Query query;
  query.problem = "no_such_problem";
  auto reply = round_trip(proto::MessageType::kQuery, encode(query));
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.value().type, static_cast<std::uint16_t>(proto::MessageType::kErrorReply));
  serial::Decoder dec(reply.value().payload);
  auto err = proto::ErrorReply::decode(dec);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(static_cast<ErrorCode>(err.value().error_code), ErrorCode::kUnknownProblem);
}

TEST_F(AgentServiceTest, NoServerAfterFailureReport) {
  auto ack = round_trip(proto::MessageType::kRegisterServer,
                        encode(make_registration("s1", 1234, 500)));
  ASSERT_TRUE(ack.ok());
  serial::Decoder adec(ack.value().payload);
  const auto id = proto::RegisterAck::decode(adec).value().server_id;

  // Fire-and-forget failure report (no reply expected).
  {
    auto conn = net::TcpConnection::connect(agent_->endpoint());
    ASSERT_TRUE(conn.ok());
    proto::FailureReport report;
    report.server_id = id;
    report.error_code = static_cast<std::uint16_t>(ErrorCode::kConnectionClosed);
    ASSERT_TRUE(net::send_message(conn.value(),
                                  static_cast<std::uint16_t>(proto::MessageType::kFailureReport),
                                  encode(report))
                    .ok());
  }
  // Poll until the report lands (async delivery).
  const Deadline deadline(2.0);
  while (agent_->registry().alive_count() > 0 && !deadline.expired()) sleep_seconds(0.005);
  EXPECT_EQ(agent_->registry().alive_count(), 0u);

  proto::Query query;
  query.problem = "solve";
  auto reply = round_trip(proto::MessageType::kQuery, encode(query));
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.value().type, static_cast<std::uint16_t>(proto::MessageType::kErrorReply));
  serial::Decoder dec(reply.value().payload);
  EXPECT_EQ(static_cast<ErrorCode>(proto::ErrorReply::decode(dec).value().error_code),
            ErrorCode::kNoServer);
}

TEST_F(AgentServiceTest, CatalogListing) {
  (void)round_trip(proto::MessageType::kRegisterServer,
                   encode(make_registration("s1", 1234, 500, {"p1", "p2"})));
  auto reply = round_trip(proto::MessageType::kListProblems, {});
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.value().type,
            static_cast<std::uint16_t>(proto::MessageType::kProblemCatalog));
  serial::Decoder dec(reply.value().payload);
  auto catalog = proto::ProblemCatalog::decode(dec);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ(catalog.value().problems.size(), 2u);
}

TEST_F(AgentServiceTest, StatsCounters) {
  (void)round_trip(proto::MessageType::kRegisterServer,
                   encode(make_registration("s1", 1234, 500)));
  proto::Query query;
  query.problem = "solve";
  (void)round_trip(proto::MessageType::kQuery, encode(query));
  (void)round_trip(proto::MessageType::kQuery, encode(query));

  auto reply = round_trip(proto::MessageType::kAgentStatsRequest, {});
  ASSERT_TRUE(reply.ok());
  serial::Decoder dec(reply.value().payload);
  auto stats = proto::AgentStats::decode(dec);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().registrations, 1u);
  EXPECT_EQ(stats.value().queries, 2u);
  EXPECT_EQ(stats.value().alive_servers, 1u);
}

TEST_F(AgentServiceTest, MalformedPayloadGetsErrorReply) {
  serial::Bytes junk{1, 2, 3};
  auto reply = round_trip(proto::MessageType::kQuery, junk);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().type, static_cast<std::uint16_t>(proto::MessageType::kErrorReply));
}

TEST_F(AgentServiceTest, MaxCandidatesHonoured) {
  for (int i = 0; i < 6; ++i) {
    // Not "s" + to_string(): GCC 12 at -O3 reports a false -Wrestrict on it.
    (void)round_trip(proto::MessageType::kRegisterServer,
                     encode(make_registration(std::string("s").append(std::to_string(i)),
                                              static_cast<std::uint16_t>(2000 + i), 100)));
  }
  proto::Query query;
  query.problem = "solve";
  query.max_candidates = 3;
  auto reply = round_trip(proto::MessageType::kQuery, encode(query));
  ASSERT_TRUE(reply.ok());
  serial::Decoder dec(reply.value().payload);
  auto list = proto::ServerList::decode(dec);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value().candidates.size(), 3u);
}

TEST_F(AgentServiceTest, ShutdownMessageStopsListener) {
  auto conn = net::TcpConnection::connect(agent_->endpoint());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(net::send_message(conn.value(),
                                static_cast<std::uint16_t>(proto::MessageType::kShutdown), {})
                  .ok());
  // The listener closes; new connections must fail shortly after.
  const Deadline deadline(2.0);
  bool refused = false;
  while (!deadline.expired()) {
    auto probe = net::TcpConnection::connect(agent_->endpoint(), 0.05);
    if (!probe.ok()) {
      refused = true;
      break;
    }
    sleep_seconds(0.01);
  }
  EXPECT_TRUE(refused);
}

TEST_F(AgentServiceTest, PipelinedMessagesOnOneConnection) {
  // The agent handles multiple requests per connection.
  auto conn = net::TcpConnection::connect(agent_->endpoint());
  ASSERT_TRUE(conn.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(net::send_message(conn.value(),
                                  static_cast<std::uint16_t>(proto::MessageType::kPing), {})
                    .ok());
    auto reply = net::recv_message(conn.value(), 2.0);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().type, static_cast<std::uint16_t>(proto::MessageType::kPong));
  }
}

TEST_F(AgentServiceTest, StopIsIdempotent) {
  agent_->stop();
  agent_->stop();
  auto conn = net::TcpConnection::connect(agent_->endpoint(), 0.1);
  EXPECT_FALSE(conn.ok()) << "listener closed after stop";
}

}  // namespace
}  // namespace ns::agent
