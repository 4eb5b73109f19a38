// Wire-protocol tests: round-trips for every message type, and fuzzing of
// the decode paths (random bytes and truncations must produce clean errors,
// never crashes or huge allocations).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "proto/messages.hpp"

namespace ns::proto {
namespace {

template <typename T>
serial::Bytes encode_msg(const T& msg) {
  serial::Encoder enc;
  msg.encode(enc);
  return enc.take();
}

template <typename T>
T round_trip(const T& msg) {
  const auto bytes = encode_msg(msg);
  serial::Decoder dec(bytes);
  auto back = T::decode(dec);
  EXPECT_TRUE(back.ok()) << (back.ok() ? "" : back.error().to_string());
  EXPECT_TRUE(dec.expect_exhausted().ok());
  return std::move(back).value();
}

dsl::ProblemSpec sample_spec() {
  dsl::ProblemSpec spec;
  spec.name = "dgesv";
  spec.description = "solve it";
  spec.inputs = {{"A", dsl::DataType::kMatrix}, {"b", dsl::DataType::kVector}};
  spec.outputs = {{"x", dsl::DataType::kVector}};
  spec.complexity = {0.667, 3.0};
  spec.size_arg = 0;
  return spec;
}

TEST(ProtoTest, RegisterServerRoundTrip) {
  RegisterServer msg;
  msg.server_name = "box7";
  msg.endpoint = {"10.1.2.3", 4242};
  msg.mflops = 123.5;
  msg.problems = {sample_spec(), sample_spec()};
  msg.problems[1].name = "cg";

  const auto back = round_trip(msg);
  EXPECT_EQ(back.server_name, "box7");
  EXPECT_EQ(back.endpoint.host, "10.1.2.3");
  EXPECT_EQ(back.endpoint.port, 4242);
  EXPECT_DOUBLE_EQ(back.mflops, 123.5);
  ASSERT_EQ(back.problems.size(), 2u);
  EXPECT_EQ(back.problems[0], msg.problems[0]);
  EXPECT_EQ(back.problems[1].name, "cg");
}

TEST(ProtoTest, RegisterAckRoundTrip) {
  RegisterAck msg;
  msg.server_id = 0xdeadbeef;
  EXPECT_EQ(round_trip(msg).server_id, 0xdeadbeefu);
}

TEST(ProtoTest, WorkloadReportRoundTrip) {
  WorkloadReport msg;
  msg.server_id = 9;
  msg.workload = 3.25;
  msg.completed = 1ull << 40;
  msg.sojourn_p95_s = 0.875;
  msg.free_slots = 2.0;
  msg.mem_free_bytes = 1.5e9;
  msg.spill_active = 1;
  const auto back = round_trip(msg);
  EXPECT_EQ(back.server_id, 9u);
  EXPECT_DOUBLE_EQ(back.workload, 3.25);
  EXPECT_EQ(back.completed, 1ull << 40);
  EXPECT_DOUBLE_EQ(back.sojourn_p95_s, 0.875);
  EXPECT_DOUBLE_EQ(back.free_slots, 2.0);
  EXPECT_DOUBLE_EQ(back.mem_free_bytes, 1.5e9);
  EXPECT_EQ(back.spill_active, 1);
}

TEST(ProtoTest, QueryRoundTrip) {
  Query msg;
  msg.problem = "dgemm";
  msg.input_bytes = 123456789;
  msg.output_bytes = 987654321;
  msg.size_hint = 2048;
  msg.max_candidates = 3;
  const auto back = round_trip(msg);
  EXPECT_EQ(back.problem, "dgemm");
  EXPECT_EQ(back.input_bytes, 123456789u);
  EXPECT_EQ(back.output_bytes, 987654321u);
  EXPECT_EQ(back.size_hint, 2048u);
  EXPECT_EQ(back.max_candidates, 3u);
}

TEST(ProtoTest, ServerListRoundTrip) {
  ServerList msg;
  for (int i = 0; i < 3; ++i) {
    ServerCandidate c;
    c.server_id = static_cast<ServerId>(i + 1);
    c.server_name = "s" + std::to_string(i);
    c.endpoint = {"127.0.0.1", static_cast<std::uint16_t>(9000 + i)};
    c.predicted_seconds = 0.5 * i;
    msg.candidates.push_back(std::move(c));
  }
  const auto back = round_trip(msg);
  ASSERT_EQ(back.candidates.size(), 3u);
  EXPECT_EQ(back.candidates[2].server_name, "s2");
  EXPECT_DOUBLE_EQ(back.candidates[2].predicted_seconds, 1.0);
}

TEST(ProtoTest, SolveRequestRoundTrip) {
  Rng rng(1);
  SolveRequest msg;
  msg.request_id = 77;
  msg.problem = "dgesv";
  msg.args = {dsl::DataObject(linalg::Matrix::random(4, 4, rng)),
              dsl::DataObject(linalg::Vector{1, 2, 3, 4})};
  msg.deadline_s = 1.5;
  msg.client_id = 0xc11e47ull;
  const auto back = round_trip(msg);
  EXPECT_EQ(back.request_id, 77u);
  ASSERT_EQ(back.args.size(), 2u);
  EXPECT_EQ(back.args[0], msg.args[0]);
  EXPECT_EQ(back.args[1], msg.args[1]);
  EXPECT_DOUBLE_EQ(back.deadline_s, 1.5);
  EXPECT_EQ(back.client_id, 0xc11e47ull);
}

TEST(ProtoTest, SolveResultRoundTrip) {
  SolveResult msg;
  msg.request_id = 78;
  msg.error_code = static_cast<std::uint16_t>(ErrorCode::kExecutionFailed);
  msg.error_message = "singular";
  msg.exec_seconds = 0.125;
  msg.retry_after_s = 0.031;
  const auto back = round_trip(msg);
  EXPECT_EQ(back.request_id, 78u);
  EXPECT_EQ(back.error_code, static_cast<std::uint16_t>(ErrorCode::kExecutionFailed));
  EXPECT_EQ(back.error_message, "singular");
  EXPECT_TRUE(back.outputs.empty());
  EXPECT_DOUBLE_EQ(back.exec_seconds, 0.125);
  EXPECT_DOUBLE_EQ(back.retry_after_s, 0.031);
}

// The overload-control fields are trailing additions: payloads from peers
// that predate them must still parse, with the fields at their defaults.
TEST(ProtoTest, OldPeersWithoutOverloadFieldsStillParse) {
  {
    SolveRequest msg;
    msg.request_id = 5;
    msg.problem = "cg";
    msg.args = {dsl::DataObject(std::int64_t{7})};
    msg.deadline_s = 2.0;
    msg.client_id = 999;  // must NOT survive: legacy encoders never wrote it
    auto bytes = encode_msg(msg);
    // Strip the trailing client_id u64 plus the later require_durable flag.
    bytes.resize(bytes.size() - 8 - 1);
    serial::Decoder dec(bytes);
    auto back = SolveRequest::decode(dec);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(dec.expect_exhausted().ok());
    EXPECT_EQ(back.value().request_id, 5u);
    EXPECT_DOUBLE_EQ(back.value().deadline_s, 2.0);
    EXPECT_EQ(back.value().client_id, 0u) << "legacy request must stay anonymous";
    EXPECT_FALSE(back.value().require_durable);
  }
  {
    SolveResult msg;
    msg.request_id = 6;
    msg.retry_after_s = 0.5;
    auto bytes = encode_msg(msg);
    // Strip retry_after_s (f64) plus the later migrated_host/migrated_port
    // addition (empty string = u32 length, then u16): the pre-overload wire.
    bytes.resize(bytes.size() - 8 - 4 - 2);
    serial::Decoder dec(bytes);
    auto back = SolveResult::decode(dec);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(dec.expect_exhausted().ok());
    EXPECT_DOUBLE_EQ(back.value().retry_after_s, 0.0) << "legacy reply carries no hint";
    EXPECT_EQ(back.value().migrated_port, 0) << "legacy reply was never migrated";
  }
  {
    SolveResult msg;
    msg.request_id = 6;
    msg.retry_after_s = 0.5;
    auto bytes = encode_msg(msg);
    bytes.resize(bytes.size() - 4 - 2);  // strip only the migration fields
    serial::Decoder dec(bytes);
    auto back = SolveResult::decode(dec);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(dec.expect_exhausted().ok());
    EXPECT_DOUBLE_EQ(back.value().retry_after_s, 0.5)
        << "overload-era reply keeps its hint";
    EXPECT_TRUE(back.value().migrated_host.empty());
    EXPECT_EQ(back.value().migrated_port, 0);
  }
  {
    WorkloadReport msg;
    msg.server_id = 7;
    msg.workload = 1.0;
    msg.sojourn_p95_s = 9.0;
    msg.free_slots = 3.0;
    auto bytes = encode_msg(msg);
    // Strip both trailing queue-pressure f64s plus the later durable i32 and
    // the memory fields (mem_free_bytes f64 + spill_active i32).
    bytes.resize(bytes.size() - 16 - 4 - 12);
    serial::Decoder dec(bytes);
    auto back = WorkloadReport::decode(dec);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(dec.expect_exhausted().ok());
    EXPECT_DOUBLE_EQ(back.value().sojourn_p95_s, 0.0);
    EXPECT_DOUBLE_EQ(back.value().free_slots, -1.0) << "-1 marks 'not reported'";
    EXPECT_EQ(back.value().durable, -1) << "-1 marks 'not reported'";
    EXPECT_DOUBLE_EQ(back.value().mem_free_bytes, -1.0) << "-1 marks 'ungoverned'";
    EXPECT_EQ(back.value().spill_active, -1) << "-1 marks 'no spill store'";
  }
}

// The durability fields (SolveRequest.require_durable, WorkloadReport.durable)
// are trailing additions one era later than the overload fields: a payload
// from an overload-era peer carries client_id / queue-pressure but ends
// before them, and must parse with the durability defaults.
TEST(ProtoTest, OldPeersWithoutDurabilityFieldsStillParse) {
  {
    SolveRequest msg;
    msg.request_id = 11;
    msg.problem = "cg";
    msg.args = {dsl::DataObject(std::int64_t{3})};
    msg.client_id = 42;
    msg.require_durable = true;  // must NOT survive: old encoders never wrote it
    auto bytes = encode_msg(msg);
    bytes.resize(bytes.size() - 1);  // strip the trailing require_durable u8
    serial::Decoder dec(bytes);
    auto back = SolveRequest::decode(dec);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(dec.expect_exhausted().ok());
    EXPECT_EQ(back.value().client_id, 42u) << "overload-era field must survive";
    EXPECT_FALSE(back.value().require_durable) << "legacy request has no durability ask";
  }
  {
    WorkloadReport msg;
    msg.server_id = 8;
    msg.workload = 2.0;
    msg.sojourn_p95_s = 0.25;
    msg.free_slots = 1.0;
    msg.durable = 1;  // must NOT survive
    auto bytes = encode_msg(msg);
    // Strip the durable i32 plus the later memory fields (f64 + i32).
    bytes.resize(bytes.size() - 4 - 12);
    serial::Decoder dec(bytes);
    auto back = WorkloadReport::decode(dec);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(dec.expect_exhausted().ok());
    EXPECT_DOUBLE_EQ(back.value().sojourn_p95_s, 0.25);
    EXPECT_DOUBLE_EQ(back.value().free_slots, 1.0);
    EXPECT_EQ(back.value().durable, -1) << "legacy report never claims durability";
    EXPECT_DOUBLE_EQ(back.value().mem_free_bytes, -1.0);
    EXPECT_EQ(back.value().spill_active, -1);
  }
  {
    // A request whose durable flag is neither 0 nor 1 is a protocol error,
    // not a silently-coerced bool.
    SolveRequest msg;
    msg.request_id = 12;
    msg.problem = "cg";
    msg.args = {dsl::DataObject(std::int64_t{3})};
    auto bytes = encode_msg(msg);
    bytes.back() = 7;
    serial::Decoder dec(bytes);
    EXPECT_FALSE(SolveRequest::decode(dec).ok());
  }
}

// The memory-pressure fields (WorkloadReport.mem_free_bytes / spill_active)
// trail one era later again than durability: a durability-era payload ends
// right after the durable i32 and must parse with the ungoverned defaults,
// while a payload torn mid-group is a protocol error, not a partial parse.
TEST(ProtoTest, OldPeersWithoutMemoryFieldsStillParse) {
  WorkloadReport msg;
  msg.server_id = 21;
  msg.workload = 1.5;
  msg.sojourn_p95_s = 0.125;
  msg.free_slots = 4.0;
  msg.durable = 1;             // must survive: durability-era field
  msg.mem_free_bytes = 123.0;  // must NOT survive: old encoders never wrote it
  msg.spill_active = 1;        // must NOT survive
  {
    auto bytes = encode_msg(msg);
    bytes.resize(bytes.size() - 12);  // strip mem_free_bytes f64 + spill_active i32
    serial::Decoder dec(bytes);
    auto back = WorkloadReport::decode(dec);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(dec.expect_exhausted().ok());
    EXPECT_EQ(back.value().durable, 1);
    EXPECT_DOUBLE_EQ(back.value().mem_free_bytes, -1.0)
        << "durability-era report must read as ungoverned";
    EXPECT_EQ(back.value().spill_active, -1);
  }
  {
    // Truncated inside the memory group: mem_free_bytes present but
    // spill_active missing. The group is all-or-nothing.
    auto bytes = encode_msg(msg);
    bytes.resize(bytes.size() - 4);
    serial::Decoder dec(bytes);
    EXPECT_FALSE(WorkloadReport::decode(dec).ok());
  }
}

// Junk fuzz over the memory fields: arbitrary (including absurd or negative)
// values must round-trip bit-exactly and never crash the decoder — the
// *predictor* is where semantics live (-1 = ungoverned, 1 = spilling), the
// wire just carries the numbers.
TEST(ProtoTest, MemoryFieldsFuzzRoundTrip) {
  Rng rng(29);
  for (int trial = 0; trial < 100; ++trial) {
    WorkloadReport report;
    report.server_id = static_cast<ServerId>(rng.next_u64());
    report.mem_free_bytes = rng.uniform(-2.0, 1e12);
    report.spill_active = static_cast<int>(rng.uniform_int(-4, 1 << 20));
    const auto back = round_trip(report);
    EXPECT_DOUBLE_EQ(back.mem_free_bytes, report.mem_free_bytes);
    EXPECT_EQ(back.spill_active, report.spill_active);

    // Random tail truncation somewhere inside the trailing groups must
    // either parse (clean era boundary) or fail cleanly — never crash.
    auto bytes = encode_msg(report);
    const auto cut = static_cast<std::size_t>(rng.uniform_int(0, 32));
    bytes.resize(std::max<std::size_t>(bytes.size() - cut, 12));
    serial::Decoder dec(bytes);
    (void)WorkloadReport::decode(dec);
  }
}

// A memory-governor shed rides the same retryable-BUSY shape as a queue
// shed: kServerOverloaded plus a retry_after_s hint the client folds into
// its backoff. The wire must carry both faithfully.
TEST(ProtoTest, MemoryShedResultCarriesRetryHint) {
  SolveResult msg;
  msg.request_id = 77;
  msg.error_code = static_cast<std::uint16_t>(ErrorCode::kServerOverloaded);
  msg.error_message = "memory governor: payload does not fit the budget";
  msg.retry_after_s = 0.75;
  const auto back = round_trip(msg);
  EXPECT_EQ(back.error_code, static_cast<std::uint16_t>(ErrorCode::kServerOverloaded));
  EXPECT_EQ(back.error_message, msg.error_message);
  EXPECT_DOUBLE_EQ(back.retry_after_s, 0.75);
  EXPECT_TRUE(is_retryable(static_cast<ErrorCode>(back.error_code)))
      << "a memory shed must stay retryable or clients would give up";
}

// Checkpoint-replication messages: round-trips for the PUT/FETCH pairs,
// including the framed SolveRequest blob a first PUT carries so the replica
// can re-admit the job on adoption.
TEST(ProtoTest, CheckpointMessagesRoundTrip) {
  {
    // Self-contained frame with the request blob attached (first frame for
    // this job, or a "need full" resend).
    CheckpointPut msg;
    msg.origin = "server1";
    msg.request_id = 4242;
    msg.deadline_remaining_s = 17.5;
    msg.iteration = 75;
    msg.residual = 1e-6;
    msg.base_iteration = 0;
    msg.frame = {0x01, 0x00, 0xff, 0x42, 0x42, 0x42};
    msg.has_request = true;
    msg.request.request_id = 4242;
    msg.request.problem = "simstate";
    msg.request.args = {dsl::DataObject(std::int64_t{20}), dsl::DataObject(std::int64_t{16})};
    msg.request.require_durable = true;
    const auto back = round_trip(msg);
    EXPECT_EQ(back.origin, "server1");
    EXPECT_EQ(back.request_id, 4242u);
    EXPECT_DOUBLE_EQ(back.deadline_remaining_s, 17.5);
    EXPECT_EQ(back.iteration, 75u);
    EXPECT_DOUBLE_EQ(back.residual, 1e-6);
    EXPECT_EQ(back.base_iteration, 0u);
    EXPECT_EQ(back.frame, msg.frame);
    ASSERT_TRUE(back.has_request);
    EXPECT_EQ(back.request.problem, "simstate");
    ASSERT_EQ(back.request.args.size(), 2u);
    EXPECT_EQ(back.request.args[1], msg.request.args[1]);
    EXPECT_TRUE(back.request.require_durable);
  }
  {
    // Steady-state delta frame: no request blob, base_iteration names the
    // snapshot the delta applies to.
    CheckpointPut msg;
    msg.origin = "server1";
    msg.request_id = 4242;
    msg.iteration = 100;
    msg.base_iteration = 75;
    msg.frame = {0x02, 0x10};
    const auto back = round_trip(msg);
    EXPECT_EQ(back.base_iteration, 75u);
    EXPECT_FALSE(back.has_request);
    EXPECT_EQ(back.frame, msg.frame);
  }
  {
    CheckpointPutAck msg;
    msg.request_id = 4242;
    msg.accepted = false;
    msg.reason = "need full";  // replica lacks the delta's base snapshot
    const auto back = round_trip(msg);
    EXPECT_EQ(back.request_id, 4242u);
    EXPECT_FALSE(back.accepted);
    EXPECT_EQ(back.reason, "need full");
  }
  {
    CheckpointFetch msg;
    msg.request_id = 4242;
    msg.origin = "";  // any origin holding this request id
    msg.adopt = true;
    const auto back = round_trip(msg);
    EXPECT_EQ(back.request_id, 4242u);
    EXPECT_TRUE(back.origin.empty());
    EXPECT_TRUE(back.adopt);
  }
  {
    CheckpointFetchReply msg;
    msg.request_id = 4242;
    msg.found = true;
    msg.adopted = true;
    msg.iteration = 100;
    msg.residual = 3.5e-7;
    msg.origin = "server1";
    const auto back = round_trip(msg);
    EXPECT_TRUE(back.found);
    EXPECT_TRUE(back.adopted);
    EXPECT_EQ(back.iteration, 100u);
    EXPECT_DOUBLE_EQ(back.residual, 3.5e-7);
    EXPECT_EQ(back.origin, "server1");
  }
  {
    // A fetch whose adopt flag is out of the bool alphabet must be rejected.
    CheckpointFetch msg;
    msg.request_id = 1;
    msg.adopt = true;
    auto bytes = encode_msg(msg);
    bytes.back() = 9;
    serial::Decoder dec(bytes);
    EXPECT_FALSE(CheckpointFetch::decode(dec).ok());
  }
}

// Randomized round-trips of the overload-control fields: extreme but finite
// values must survive the wire bit-exactly.
TEST(ProtoTest, OverloadFieldsFuzzRoundTrip) {
  Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    SolveRequest req;
    req.request_id = rng.next_u64();
    req.problem = "simwork";
    req.args = {dsl::DataObject(std::int64_t{1})};
    req.deadline_s = rng.uniform(0.0, 1e6);
    req.client_id = rng.next_u64();
    const auto req_back = round_trip(req);
    EXPECT_EQ(req_back.client_id, req.client_id);
    EXPECT_DOUBLE_EQ(req_back.deadline_s, req.deadline_s);

    SolveResult res;
    res.request_id = rng.next_u64();
    res.retry_after_s = rng.uniform(0.0, 3600.0);
    EXPECT_DOUBLE_EQ(round_trip(res).retry_after_s, res.retry_after_s);

    WorkloadReport report;
    report.server_id = static_cast<ServerId>(rng.next_u64());
    report.sojourn_p95_s = rng.uniform(0.0, 1e3);
    report.free_slots = rng.uniform(-1.0, 64.0);
    const auto report_back = round_trip(report);
    EXPECT_DOUBLE_EQ(report_back.sojourn_p95_s, report.sojourn_p95_s);
    EXPECT_DOUBLE_EQ(report_back.free_slots, report.free_slots);
  }
}

TEST(ProtoTest, FailureAndMetricsRoundTrip) {
  FailureReport failure;
  failure.server_id = 4;
  failure.error_code = static_cast<std::uint16_t>(ErrorCode::kTimeout);
  EXPECT_EQ(round_trip(failure).error_code,
            static_cast<std::uint16_t>(ErrorCode::kTimeout));

  MetricsReport metrics;
  metrics.server_id = 4;
  metrics.bytes = 1 << 20;
  metrics.transfer_seconds = 0.25;
  const auto back = round_trip(metrics);
  EXPECT_EQ(back.bytes, 1u << 20);
  EXPECT_DOUBLE_EQ(back.transfer_seconds, 0.25);
}

TEST(ProtoTest, CatalogErrorStatsRoundTrip) {
  ProblemCatalog catalog;
  catalog.problems = {sample_spec()};
  EXPECT_EQ(round_trip(catalog).problems[0], sample_spec());

  ErrorReply err;
  err.error_code = static_cast<std::uint16_t>(ErrorCode::kNoServer);
  err.message = "pool empty";
  EXPECT_EQ(round_trip(err).message, "pool empty");

  AgentStats stats;
  stats.queries = 10;
  stats.registrations = 2;
  stats.workload_reports = 30;
  stats.failure_reports = 1;
  stats.alive_servers = 2;
  const auto back = round_trip(stats);
  EXPECT_EQ(back.queries, 10u);
  EXPECT_EQ(back.alive_servers, 2u);
}

TEST(ProtoTest, CancelAndDrainRoundTrip) {
  CancelRequest cancel;
  cancel.request_id = 0x1122334455667788ull;
  EXPECT_EQ(round_trip(cancel).request_id, 0x1122334455667788ull);

  CancelAck ack;
  ack.request_id = 42;
  ack.outcome = CancelOutcome::kRunning;
  const auto ack_back = round_trip(ack);
  EXPECT_EQ(ack_back.request_id, 42u);
  EXPECT_EQ(ack_back.outcome, CancelOutcome::kRunning);

  DrainRequest drain;
  drain.deadline_s = 2.5;
  EXPECT_DOUBLE_EQ(round_trip(drain).deadline_s, 2.5);

  DrainAck drain_ack;
  drain_ack.started = true;
  drain_ack.running = 3;
  drain_ack.queued = 7;
  const auto drain_back = round_trip(drain_ack);
  EXPECT_TRUE(drain_back.started);
  EXPECT_EQ(drain_back.running, 3u);
  EXPECT_EQ(drain_back.queued, 7u);

  DeregisterServer dereg;
  dereg.server_id = 0xfeedu;
  EXPECT_EQ(round_trip(dereg).server_id, 0xfeedu);
}

TEST(ProtoTest, CancelAckRejectsUnknownOutcome) {
  CancelAck ack;
  ack.request_id = 1;
  ack.outcome = CancelOutcome::kQueued;
  auto bytes = encode_msg(ack);
  // The outcome byte is the last field; force it out of range.
  bytes.back() = 0x7f;
  serial::Decoder dec(bytes);
  auto back = CancelAck::decode(dec);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code, ErrorCode::kProtocol);
}

// The cancelled error code travels the same SolveResult path as every other
// failure; a kCancelled reply must survive the wire (the hedging client's
// loser accounting depends on it).
TEST(ProtoTest, SolveResultCarriesCancelled) {
  SolveResult msg;
  msg.request_id = 9;
  msg.error_code = static_cast<std::uint16_t>(ErrorCode::kCancelled);
  msg.error_message = "cancelled while queued";
  const auto back = round_trip(msg);
  EXPECT_EQ(static_cast<ErrorCode>(back.error_code), ErrorCode::kCancelled);
  // A cancelled attempt says nothing about the request itself: retryable.
  EXPECT_TRUE(is_retryable(ErrorCode::kCancelled));
}

// ---- hostile input ----

TEST(ProtoFuzzTest, TruncationsNeverCrash) {
  Rng rng(2);
  SolveRequest msg;
  msg.request_id = 1;
  msg.problem = "dgemm";
  msg.args = {dsl::DataObject(linalg::Matrix::random(6, 6, rng)),
              dsl::DataObject(std::int64_t{5})};
  const auto bytes = encode_msg(msg);
  // Every strict prefix must either decode to a clean error or — at exactly
  // a backward-compat boundary where a trailing optional field begins —
  // parse as a legacy request with the field at its default. Never a crash.
  // Two boundaries: before client_id (u64) and before require_durable (u8).
  const std::size_t pre_client_id = bytes.size() - 8 - 1;
  const std::size_t pre_durable = bytes.size() - 1;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    serial::Decoder dec(bytes.data(), len);
    auto back = SolveRequest::decode(dec);
    if (len == pre_client_id || len == pre_durable) {
      ASSERT_TRUE(back.ok()) << "compat boundary must parse as a legacy request";
      EXPECT_EQ(back.value().client_id, len == pre_durable ? msg.client_id : 0u);
      EXPECT_FALSE(back.value().require_durable);
    } else {
      EXPECT_FALSE(back.ok()) << "prefix length " << len;
    }
  }
}

class ProtoRandomFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtoRandomFuzzTest, RandomBytesProduceCleanErrors) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 256));
    serial::Bytes junk(len);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    // Try every decoder; none may crash, loop, or allocate absurdly.
    {
      serial::Decoder dec(junk);
      (void)RegisterServer::decode(dec);
    }
    {
      serial::Decoder dec(junk);
      (void)Query::decode(dec);
    }
    {
      serial::Decoder dec(junk);
      (void)ServerList::decode(dec);
    }
    {
      serial::Decoder dec(junk);
      (void)SolveRequest::decode(dec);
    }
    {
      serial::Decoder dec(junk);
      (void)SolveResult::decode(dec);
    }
    {
      serial::Decoder dec(junk);
      (void)ProblemCatalog::decode(dec);
    }
    {
      serial::Decoder dec(junk);
      (void)CancelAck::decode(dec);
    }
    {
      serial::Decoder dec(junk);
      (void)DrainAck::decode(dec);
    }
    {
      serial::Decoder dec(junk);
      (void)CheckpointPut::decode(dec);
    }
    {
      serial::Decoder dec(junk);
      (void)CheckpointFetch::decode(dec);
    }
    {
      serial::Decoder dec(junk);
      (void)CheckpointFetchReply::decode(dec);
    }
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtoRandomFuzzTest, ::testing::Values(11, 22, 33, 44, 55));

TEST(ProtoFuzzTest, BitFlipsEitherDecodeOrFailCleanly) {
  Rng rng(3);
  ServerList msg;
  ServerCandidate c;
  c.server_id = 1;
  c.server_name = "x";
  c.endpoint = {"127.0.0.1", 1};
  msg.candidates = {c};
  const auto bytes = encode_msg(msg);
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    auto mutated = bytes;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    serial::Decoder dec(mutated);
    auto back = ServerList::decode(dec);  // either outcome fine; no crash
    (void)back;
  }
  SUCCEED();
}

// ---- exact-size encoding ----

std::vector<dsl::DataObject> every_kind_of_arg(Rng& rng) {
  auto sparse = linalg::CsrMatrix::from_csr(2, 3, {0, 1, 3}, {2, 0, 1}, {1.5, -2.0, 4.0});
  EXPECT_TRUE(sparse.ok());
  return {dsl::DataObject::from_int(-7), dsl::DataObject(0.25),
          dsl::DataObject(std::string("label")),
          dsl::DataObject(linalg::random_vector(33, rng)),
          dsl::DataObject(linalg::Matrix::random(3, 5, rng)),
          dsl::DataObject(std::move(sparse).value())};
}

// A client encodes each attempt straight from the caller's arguments; the
// bytes must be exactly those of a request that holds the same arguments.
TEST(ProtoEncodeTest, EncodeWithArgsMatchesEncodeOfHeldArgs) {
  Rng rng(11);
  SolveRequest bare;
  bare.request_id = 0x0102030405060708ull;
  bare.problem = "mixed";
  bare.deadline_s = 2.5;
  bare.trace_id = 99;
  bare.client_id = 0xabcdefull;
  bare.require_durable = true;
  const auto args = every_kind_of_arg(rng);

  SolveRequest held = bare;
  held.args = args;
  serial::Encoder from_args;
  bare.encode(from_args, args);
  EXPECT_EQ(from_args.bytes(), encode_msg(held));

  // encode(enc) is encode(enc, args) with the request's own arguments.
  serial::Encoder forwarded;
  held.encode(forwarded, held.args);
  EXPECT_EQ(forwarded.bytes(), encode_msg(held));

  serial::Decoder dec(from_args.bytes());
  auto back = SolveRequest::decode(dec);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_TRUE(dec.expect_exhausted().ok());
  ASSERT_EQ(back.value().args.size(), args.size());
  for (std::size_t i = 0; i < args.size(); ++i) EXPECT_EQ(back.value().args[i], args[i]) << i;
}

// Bulk messages reserve their exact size before the first put: the buffer
// is allocated once and ends exactly full, even after bytes already in the
// encoder.
TEST(ProtoEncodeTest, BulkRequestAndResultEncodeWithoutRegrowth) {
  Rng rng(12);
  const std::size_t n = std::size_t{1} << 18;
  SolveRequest request;
  request.request_id = 5;
  request.problem = "daxpy";
  request.args = {dsl::DataObject(2.0), dsl::DataObject(linalg::random_vector(n, rng)),
                  dsl::DataObject(linalg::random_vector(n, rng))};
  SolveResult result;
  result.request_id = 5;
  result.error_message = "";
  result.outputs = {dsl::DataObject(linalg::random_vector(n, rng))};
  result.migrated_host = "10.0.0.2";

  for (const std::size_t prefix : {std::size_t{0}, std::size_t{13}}) {
    SCOPED_TRACE(prefix);
    serial::Encoder req_enc;
    for (std::size_t i = 0; i < prefix; ++i) req_enc.put_u8(0xee);
    request.encode(req_enc);
    EXPECT_EQ(req_enc.bytes().capacity(), req_enc.size());
    EXPECT_EQ(req_enc.size(), prefix + 8 + 4 + request.problem.size() +
                                  dsl::args_byte_size(request.args) + 8 + 8 + 8 + 1);

    serial::Encoder res_enc;
    for (std::size_t i = 0; i < prefix; ++i) res_enc.put_u8(0xee);
    result.encode(res_enc);
    EXPECT_EQ(res_enc.bytes().capacity(), res_enc.size());
  }

  // With the buffer reserved up front, encoding never moves it.
  serial::Encoder enc;
  enc.reserve(encode_msg(request).size());
  const auto* data = enc.bytes().data();
  const std::size_t capacity = enc.bytes().capacity();
  request.encode(enc);
  EXPECT_EQ(enc.bytes().data(), data);
  EXPECT_EQ(enc.bytes().capacity(), capacity);
  EXPECT_EQ(round_trip(request).args, request.args);
}

}  // namespace
}  // namespace ns::proto
