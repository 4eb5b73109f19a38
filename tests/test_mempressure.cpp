// Memory-pressure armor: byte-accounted admission, payload spill-to-disk,
// and allocation-fault injection.
//
// These tests pin the memory-governance layer end to end:
//   - the MemGovernor account itself (budget refusal, clamp-subtract
//     release, per-job cap, peak watermark) and the CRC-guarded SpillStore,
//   - the AllocFaultInjector trip-point machinery,
//   - a client-role frame cap on the dial-out transport,
//   - a server at 3x payload oversubscription vs a fixed mem budget:
//     >= 95% of jobs complete, spill engages and reloads byte-identically
//     (results stay numerically exact), and peak accounted bytes never
//     exceed the budget,
//   - scripted std::bad_alloc at every hardened trip point: jobs shed
//     retryably and complete on retry; no daemon ever crashes,
//   - the checkpoint replica store bounded by bytes with largest-first
//     eviction.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "common/bytepack.hpp"
#include "common/clock.hpp"
#include "common/memgov.hpp"
#include "common/metrics.hpp"
#include "common/vfs.hpp"
#include "net/pool.hpp"
#include "net/transport.hpp"
#include "proto/messages.hpp"
#include "testkit/cluster.hpp"

#include "conservation.hpp"

namespace ns {
namespace {

using dsl::DataObject;

template <typename Pred>
bool eventually(Pred pred, double timeout_s = 5.0) {
  const Deadline deadline(timeout_s);
  while (!deadline.expired()) {
    if (pred()) return true;
    sleep_seconds(0.005);
  }
  return pred();
}

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/ns_mem_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    path = made != nullptr ? made : "/tmp/ns_mem_fallback";
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

// ---- MemGovernor ----

TEST(MemGovernorTest, BudgetRefusesOvershootAndReleaseClamps) {
  mem::MemBudgetConfig cfg;
  cfg.global_bytes = 1000;
  mem::MemGovernor gov(cfg);
  ASSERT_TRUE(gov.governed());
  EXPECT_EQ(gov.budget(), 1000u);

  EXPECT_TRUE(gov.try_charge(600));
  EXPECT_EQ(gov.accounted(), 600u);
  EXPECT_EQ(gov.headroom(), 400u);
  EXPECT_FALSE(gov.try_charge(401)) << "charge past the budget must refuse";
  EXPECT_EQ(gov.accounted(), 600u) << "a refused charge must not account";
  EXPECT_TRUE(gov.try_charge(400));
  EXPECT_EQ(gov.headroom(), 0u);
  EXPECT_EQ(gov.peak(), 1000u);

  // Clamp-subtract: an over-release (double free, forced-charge races)
  // floors at zero instead of wrapping to 2^64.
  gov.release(5000);
  EXPECT_EQ(gov.accounted(), 0u);
  EXPECT_EQ(gov.peak(), 1000u) << "peak is a high-water mark, not current";

  // Overflow-shaped charge: cur + bytes wrapping must refuse, not accept.
  EXPECT_FALSE(gov.try_charge(~0ull));
}

TEST(MemGovernorTest, PerJobBudgetClampsToGlobal) {
  mem::MemBudgetConfig cfg;
  cfg.global_bytes = 1000;
  cfg.per_job_bytes = 0;
  EXPECT_EQ(mem::MemGovernor(cfg).per_job_budget(), 1000u)
      << "unset per-job cap falls back to the global budget";
  cfg.per_job_bytes = 4000;
  EXPECT_EQ(mem::MemGovernor(cfg).per_job_budget(), 1000u)
      << "a per-job cap above the whole budget is meaningless";
  cfg.per_job_bytes = 300;
  EXPECT_EQ(mem::MemGovernor(cfg).per_job_budget(), 300u);
}

TEST(MemGovernorTest, UngovernedTracksButNeverRefuses) {
  mem::MemGovernor gov;
  EXPECT_FALSE(gov.governed());
  EXPECT_TRUE(gov.try_charge(1ull << 40));
  EXPECT_EQ(gov.accounted(), 1ull << 40);
  EXPECT_EQ(gov.peak(), 1ull << 40);
  EXPECT_EQ(gov.headroom(), 0u);
  gov.release(1ull << 40);
  EXPECT_EQ(gov.accounted(), 0u);
}

TEST(MemGovernorTest, ForcedChargeOvershootsAndIsVisibleInPeak) {
  mem::MemBudgetConfig cfg;
  cfg.global_bytes = 100;
  mem::MemGovernor gov(cfg);
  ASSERT_TRUE(gov.try_charge(90));
  gov.charge_forced(50);
  EXPECT_EQ(gov.accounted(), 140u);
  EXPECT_EQ(gov.peak(), 140u);
  EXPECT_EQ(gov.headroom(), 0u);
  gov.release(140);
  EXPECT_EQ(gov.accounted(), 0u);
}

// ---- SpillStore ----

TEST(SpillStoreTest, SaveLoadRoundTripIsByteIdentical) {
  TempDir dir;
  mem::SpillStore store;
  store.configure(dir.path);
  ASSERT_TRUE(store.enabled());

  std::vector<std::uint8_t> payload(123457);
  std::uint64_t x = 0x243f6a8885a308d3ull;
  for (auto& b : payload) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  ASSERT_TRUE(store.save(42, payload).ok());
  auto back = store.load(42);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value(), payload) << "spill reload must be byte-identical";

  store.remove(42);
  EXPECT_FALSE(store.load(42).ok()) << "removed spill file must not load";
  store.remove(42);  // idempotent
}

TEST(SpillStoreTest, CorruptedSpillFileIsRefusedByCrc) {
  TempDir dir;
  mem::SpillStore store;
  store.configure(dir.path);
  std::vector<std::uint8_t> payload(4096, 0x5a);
  ASSERT_TRUE(store.save(7, payload).ok());

  // Flip one byte in the middle of the payload region on disk.
  const std::string path = dir.path + "/7.spill";
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(2048);
    const char evil = 0x13;
    f.write(&evil, 1);
  }
  EXPECT_FALSE(store.load(7).ok()) << "bit rot must be caught by the CRC";
}

// The length field sits outside the payload CRC. A corrupt one must be
// refused before anything is allocated: 2^63+5 would make the resize throw
// std::length_error, and one byte too many would read past the payload.
TEST(SpillStoreTest, CorruptedLengthFieldIsRefusedWithoutThrowing) {
  TempDir dir;
  mem::SpillStore store;
  store.configure(dir.path);
  const std::vector<std::uint8_t> payload(4096, 0x5a);
  const std::string path = dir.path + "/9.spill";
  constexpr std::streamoff kLengthOffset = 8;  // after magic and CRC
  for (const std::uint64_t length : {(std::uint64_t{1} << 63) + 5, payload.size() + 1}) {
    ASSERT_TRUE(store.save(9, payload).ok());
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.good());
      f.seekp(kLengthOffset);
      f.write(reinterpret_cast<const char*>(&length), sizeof(length));
    }
    Result<std::vector<std::uint8_t>> back = std::vector<std::uint8_t>{};
    EXPECT_NO_THROW(back = store.load(9)) << "length " << length;
    EXPECT_FALSE(back.ok()) << "a corrupt length field must be refused: " << length;
  }
}

TEST(SpillStoreTest, WriteFailureDegradesToInRamOnly) {
  TempDir dir;
  mem::SpillStore store;
  store.configure(dir.path);
  ASSERT_TRUE(store.enabled());

  const auto degraded_before = metrics::counter("mem.spill_degraded_total").value();
  vfs::StorageFaultPlan plan;
  plan.rules.push_back({vfs::StorageFaultMode::kEnospc, 1.0, -1});
  vfs::StorageFaultInjector::instance().arm(dir.path, plan);
  EXPECT_FALSE(store.save(1, std::vector<std::uint8_t>(512, 1)).ok());
  vfs::StorageFaultInjector::instance().disarm_all();

  EXPECT_TRUE(store.degraded());
  EXPECT_FALSE(store.enabled()) << "a degraded store must stop offering spill";
  EXPECT_GT(metrics::counter("mem.spill_degraded_total").value(), degraded_before);
}

// ---- AllocFaultInjector ----

TEST(AllocFaultTest, PrefixMatchMaxTriggersAndDisarm) {
  auto& inj = mem::AllocFaultInjector::instance();
  inj.disarm_all();
  EXPECT_FALSE(inj.armed());
  // Unarmed trip points are free and never throw.
  EXPECT_NO_THROW(mem::alloc_trip("server.execute"));

  inj.arm(mem::AllocFaultPlan::single("server.", 1.0, 2));
  EXPECT_TRUE(inj.armed());
  EXPECT_FALSE(inj.should_fail("net.recv")) << "site prefix must not match";
  EXPECT_TRUE(inj.should_fail("server.solve_decode"));
  EXPECT_TRUE(inj.should_fail("server.execute"));
  EXPECT_FALSE(inj.should_fail("server.execute")) << "max_triggers=2 exhausted";
  EXPECT_EQ(inj.triggered_count(), 2u);

  EXPECT_THROW(
      {
        inj.arm(mem::AllocFaultPlan::single("unit.test_site"));
        mem::alloc_trip("unit.test_site");
      },
      std::bad_alloc);

  inj.disarm_all();
  EXPECT_FALSE(inj.armed());
  EXPECT_EQ(inj.triggered_count(), 0u);
  EXPECT_NO_THROW(mem::alloc_trip("unit.test_site"));
}

// ---- client-role frame cap (transport) ----

TEST(FrameCapTest, OversizedReplyIsRejectedBeforeBuffering) {
  auto listener = net::TcpListener::bind(net::Endpoint{"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok()) << listener.error().to_string();

  std::thread peer([&] {
    auto conn = listener.value().accept(5.0);
    if (!conn.ok()) return;
    // A well-formed frame whose payload (64 KiB) exceeds the 1 KiB cap the
    // client will read with.
    const serial::Bytes big(64 * 1024, 0xee);
    (void)net::send_message(conn.value(), 99, big);
    sleep_seconds(0.2);
  });

  auto conn = net::TcpConnection::connect(listener.value().endpoint(), 5.0);
  ASSERT_TRUE(conn.ok()) << conn.error().to_string();
  const auto oversized_before = metrics::counter("net.guard.oversized_total").value();
  auto msg = net::recv_message(conn.value(), 5.0, /*max_payload=*/1024);
  EXPECT_FALSE(msg.ok()) << "a payload over the client cap must be refused";
  if (!msg.ok()) {
    EXPECT_EQ(msg.error().code, ErrorCode::kProtocol);
  }
  EXPECT_GT(metrics::counter("net.guard.oversized_total").value(), oversized_before);
  peer.join();

  // The same frame under the default client cap parses fine.
  auto listener2 = net::TcpListener::bind(net::Endpoint{"127.0.0.1", 0});
  ASSERT_TRUE(listener2.ok());
  std::thread peer2([&] {
    auto conn2 = listener2.value().accept(5.0);
    if (!conn2.ok()) return;
    const serial::Bytes big(64 * 1024, 0xee);
    (void)net::send_message(conn2.value(), 99, big);
    sleep_seconds(0.2);
  });
  auto conn2 = net::TcpConnection::connect(listener2.value().endpoint(), 5.0);
  ASSERT_TRUE(conn2.ok());
  auto ok_msg = net::recv_message(conn2.value(), 5.0);
  ASSERT_TRUE(ok_msg.ok()) << ok_msg.error().to_string();
  EXPECT_EQ(ok_msg.value().payload.size(), 64u * 1024);
  peer2.join();
}

// ---- end-to-end: oversubscription with a fixed budget ----

// Jobs whose combined payload is ~3x the server's global memory budget.
// Admission charges every payload, queued-but-cold payloads spill to disk
// (releasing their charge), and over-budget admissions shed retryably with a
// retry_after hint the client's backoff honors. Expected outcome: >= 95%
// complete with numerically exact results (spill reloads are
// byte-identical), spill engaged, and the accounted high-water mark never
// passed the budget.
TEST(MemPressureTest, OversubscribedBurstCompletesWithinBudget) {
  TempDir spill_dir;
  constexpr std::uint64_t kBudget = 256 * 1024;
  constexpr std::size_t kVecDoubles = 2048;  // ~16 KiB per vector, 2 per job
  constexpr int kJobs = 24;                  // ~32 KiB payload each = 3x budget

  testkit::ClusterConfig config;
  config.rating_base = 500.0;
  testkit::ClusterServerSpec spec;
  spec.name = "server0";
  spec.workers = 1;  // force queueing: spill needs queued-but-cold payloads
  // Slow the server so each ddot takes ~80 ms of emulated time: payloads
  // must sit queued (and cold) long enough for the spill watermark to act.
  spec.speed = 1e-4;
  spec.slowdown_mode = server::SlowdownMode::kSleep;
  spec.mem.global_bytes = kBudget;
  spec.mem.spill_dir = spill_dir.path;
  spec.mem.spill_min_bytes = 1024;
  config.servers = {spec};
  config.io_timeout_s = 60.0;
  config.client_deadline_s = 45.0;  // retry sheds until done, not N attempts
  auto cluster = testkit::TestCluster::start(config);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();
  auto& server = cluster.value()->server(0);
  ASSERT_TRUE(server.governor().governed());

  const auto spilled_before = metrics::counter("mem.spilled_bytes_total").value();
  const auto reloads_before = metrics::counter("mem.spill_reloads_total").value();

  linalg::Vector x(kVecDoubles, 1.0);
  linalg::Vector y(kVecDoubles, 2.0);
  const double expected = 2.0 * static_cast<double>(kVecDoubles);

  auto client = cluster.value()->make_client();
  std::vector<client::RequestHandle> handles;
  handles.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    handles.push_back(client.netsl_nb("ddot", {DataObject(x), DataObject(y)}));
  }
  int ok = 0;
  for (auto& handle : handles) {
    auto result = handle.wait();
    if (!result.ok()) continue;
    ASSERT_EQ(result.value().size(), 1u);
    // Numerically exact: a spill reload that was not byte-identical would
    // change operand bits and show up here.
    EXPECT_DOUBLE_EQ(result.value()[0].as_double(), expected);
    ++ok;
  }
  EXPECT_GE(ok, (kJobs * 95) / 100)
      << "completion under memory oversubscription fell below 95%: " << ok << "/"
      << kJobs;

  // Spill engaged and reloaded.
  EXPECT_GT(metrics::counter("mem.spilled_bytes_total").value(), spilled_before)
      << "payload spill never engaged";
  EXPECT_GT(metrics::counter("mem.spill_reloads_total").value(), reloads_before);

  // The budget invariant: the accounted high-water mark stayed within the
  // budget (no forced overshoot was needed for this sizing).
  EXPECT_LE(server.governor().peak(), kBudget)
      << "accounted bytes exceeded the budget";
  EXPECT_EQ(metrics::counter("mem.spill_reload_errors_total").value(), 0u);

  // Steady state: everything released, nothing left parked.
  EXPECT_TRUE(eventually([&] { return server.governor().accounted() == 0; }, 5.0))
      << "accounted bytes leaked: " << server.governor().accounted();
  EXPECT_EQ(server.spilled_jobs(), 0);
  conservation::expect_conserved(*cluster.value(), tally);
}

// A job that can never fit (payload + working set > the whole budget) is
// shed retryably at admission with a retry_after hint — and the shed is
// counted — while small jobs keep flowing.
TEST(MemPressureTest, OversizedJobShedsRetryablySmallJobsStillFlow) {
  testkit::ClusterConfig config;
  config.rating_base = 500.0;
  testkit::ClusterServerSpec spec;
  spec.name = "server0";
  spec.workers = 2;
  spec.slowdown_mode = server::SlowdownMode::kSleep;
  spec.mem.global_bytes = 64 * 1024;  // ddot(4096 doubles x2) can never fit
  config.servers = {spec};
  config.io_timeout_s = 20.0;
  auto cluster = testkit::TestCluster::start(config);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();
  auto& server = cluster.value()->server(0);

  const auto shed_before = metrics::counter("mem.shed_total").value();
  {
    client::ClientConfig cc;
    cc.agents = {cluster.value()->agent_endpoint()};
    cc.io_timeout_s = 10.0;
    cc.max_retries = 1;  // we want to see the shed, not mask it with retries
    client::NetSolveClient big_client(cc);
    linalg::Vector v(4096, 1.0);
    auto result = big_client.netsl("ddot", {DataObject(v), DataObject(v)});
    EXPECT_FALSE(result.ok()) << "an infeasible job must be shed";
  }
  EXPECT_GT(metrics::counter("mem.shed_total").value(), shed_before);
  EXPECT_GT(server.mem_shed(), 0u);

  // The governor did not leak the refused payload's bytes.
  EXPECT_TRUE(eventually([&] { return server.governor().accounted() == 0; }, 5.0));

  // Small jobs still flow through the same server.
  auto client = cluster.value()->make_client();
  auto small = client.netsl("simwork", {DataObject(std::int64_t{1})});
  EXPECT_TRUE(small.ok()) << (small.ok() ? "" : small.error().to_string());
  conservation::expect_conserved(*cluster.value(), tally);
}

// ---- allocation-fault injection: no daemon ever crashes ----

// Every hardened trip point, scripted to throw twice: the failure converts
// into a counted retryable shed, the client's retry completes the job, and
// the daemon keeps serving. Running in one process means an escaped
// bad_alloc would take the whole test binary down — the strongest available
// "never std::terminate" assertion.
TEST(MemPressureTest, InjectedBadAllocNeverCrashesAnyDaemon) {
  const char* kSites[] = {
      "server.solve_decode", "server.execute", "net.recv",
      "net.mux_read",        "net.reactor_read",
  };

  testkit::ClusterConfig config;
  config.rating_base = 500.0;
  testkit::ClusterServerSpec spec;
  spec.name = "server0";
  spec.workers = 2;
  spec.slowdown_mode = server::SlowdownMode::kSleep;
  config.servers = {spec};
  config.io_timeout_s = 30.0;
  config.client_deadline_s = 20.0;
  auto cluster = testkit::TestCluster::start(config);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();
  auto client = cluster.value()->make_client();

  for (const char* site : kSites) {
    SCOPED_TRACE(site);
    cluster.value()->arm_alloc_fault(mem::AllocFaultPlan::single(site, 1.0, 2));
    int ok = 0;
    constexpr int kBurst = 6;
    std::vector<client::RequestHandle> handles;
    for (int i = 0; i < kBurst; ++i) {
      handles.push_back(client.netsl_nb("simwork", {DataObject(std::int64_t{1})}));
    }
    for (auto& handle : handles) {
      if (handle.wait().ok()) ++ok;
    }
    cluster.value()->disarm_alloc_faults();
    EXPECT_EQ(ok, kBurst) << "jobs lost to injected bad_alloc at " << site;
    // The daemon is alive and serving after the fault window.
    auto after = client.netsl("simwork", {DataObject(std::int64_t{1})});
    EXPECT_TRUE(after.ok()) << (after.ok() ? "" : after.error().to_string());
  }
  EXPECT_GT(metrics::counter("mem.bad_alloc_total").value(), 0u);
  conservation::expect_conserved(*cluster.value(), tally);
}

// bad_alloc scripted inside the spill save and reload paths of an
// oversubscribed server: spill degrades to in-RAM (save) or sheds retryably
// (reload), and every job still completes.
TEST(MemPressureTest, InjectedBadAllocInSpillPathsIsSurvivable) {
  TempDir spill_dir;
  testkit::ClusterConfig config;
  config.rating_base = 500.0;
  testkit::ClusterServerSpec spec;
  spec.name = "server0";
  spec.workers = 1;
  spec.slowdown_mode = server::SlowdownMode::kSleep;
  spec.mem.global_bytes = 256 * 1024;
  spec.mem.spill_dir = spill_dir.path;
  spec.mem.spill_min_bytes = 1024;
  config.servers = {spec};
  config.io_timeout_s = 60.0;
  config.client_deadline_s = 45.0;
  auto cluster = testkit::TestCluster::start(config);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();

  linalg::Vector x(2048, 1.0);
  linalg::Vector y(2048, 2.0);
  auto client = cluster.value()->make_client();
  for (const char* site : {"server.spill_save", "server.spill_reload", "mem.spill_load"}) {
    SCOPED_TRACE(site);
    cluster.value()->arm_alloc_fault(mem::AllocFaultPlan::single(site, 1.0, 2));
    std::vector<client::RequestHandle> handles;
    constexpr int kBurst = 12;
    for (int i = 0; i < kBurst; ++i) {
      handles.push_back(client.netsl_nb("ddot", {DataObject(x), DataObject(y)}));
    }
    int ok = 0;
    for (auto& handle : handles) {
      if (handle.wait().ok()) ++ok;
    }
    cluster.value()->disarm_alloc_faults();
    EXPECT_GE(ok, (kBurst * 95) / 100)
        << "burst under spill-path bad_alloc lost jobs: " << ok << "/" << kBurst;
  }
  conservation::expect_conserved(*cluster.value(), tally);
}

// ---- replica store byte bound ----

// Replica PUTs past the byte budget evict largest-first; the store's
// accounted bytes never exceed the budget, and the eviction is counted.
TEST(MemPressureTest, ReplicaStoreIsByteBoundedLargestFirst) {
  constexpr std::uint64_t kReplicaBudget = 64 * 1024;
  testkit::ClusterConfig config;
  config.rating_base = 500.0;
  testkit::ClusterServerSpec spec;
  spec.name = "server0";
  spec.workers = 1;
  spec.slowdown_mode = server::SlowdownMode::kSleep;
  spec.mem.replica_budget_bytes = kReplicaBudget;
  config.servers = {spec};
  config.io_timeout_s = 20.0;
  auto cluster = testkit::TestCluster::start(config);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();
  auto& server = cluster.value()->server(0);
  const net::Endpoint ep = server.endpoint();

  const auto evicted_before = metrics::counter("mem.replica_evicted_total").value();

  auto put_checkpoint = [&](std::uint64_t request_id, std::size_t state_bytes) {
    proto::CheckpointPut put;
    put.origin = "peer";
    put.request_id = request_id;
    put.deadline_remaining_s = 60.0;
    put.iteration = 1;
    put.residual = 0.5;
    serial::Bytes state(state_bytes, static_cast<std::uint8_t>(request_id));
    put.frame = bytepack::pack_raw(state);
    put.has_request = true;
    put.request.request_id = request_id;
    put.request.problem = "simwork";
    put.request.args = {DataObject(std::int64_t{1})};
    serial::Encoder enc;
    put.encode(enc);
    auto reply = net::pool_round_trip(
        ep, static_cast<std::uint16_t>(proto::MessageType::kCheckpointPut),
        enc.take(), 5.0, 5.0);
    ASSERT_TRUE(reply.ok()) << reply.error().to_string();
    serial::Decoder dec(reply.value().payload);
    auto ack = proto::CheckpointPutAck::decode(dec);
    ASSERT_TRUE(ack.ok());
    EXPECT_TRUE(ack.value().accepted) << ack.value().reason;
  };

  // One big entry (~32 KiB) then a stream of small ones: the small ones must
  // evict the big entry (largest-first), not each other.
  put_checkpoint(1, 32 * 1024);
  EXPECT_GE(server.replica_bytes(), 32u * 1024);
  for (std::uint64_t id = 2; id <= 12; ++id) {
    put_checkpoint(id, 4 * 1024);
    EXPECT_LE(server.replica_bytes(), kReplicaBudget)
        << "replica store exceeded its byte budget";
  }
  EXPECT_GT(metrics::counter("mem.replica_evicted_total").value(), evicted_before)
      << "byte pressure never evicted anything";
  // The big entry was the (first) victim: the latest small entries survive.
  EXPECT_GE(server.replica_holds(), 8u);
  EXPECT_LE(server.replica_bytes(), kReplicaBudget);
  conservation::expect_conserved(*cluster.value(), tally);
}

// An entry larger than the whole replica budget is refused outright (never
// stored, never holds the budget hostage).
TEST(MemPressureTest, ReplicaLargerThanBudgetIsRefused) {
  testkit::ClusterConfig config;
  config.rating_base = 500.0;
  testkit::ClusterServerSpec spec;
  spec.name = "server0";
  spec.workers = 1;
  spec.slowdown_mode = server::SlowdownMode::kSleep;
  spec.mem.replica_budget_bytes = 8 * 1024;
  config.servers = {spec};
  config.io_timeout_s = 20.0;
  auto cluster = testkit::TestCluster::start(config);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const auto tally = conservation::ClientTally::now();
  auto& server = cluster.value()->server(0);

  proto::CheckpointPut put;
  put.origin = "peer";
  put.request_id = 99;
  put.iteration = 1;
  serial::Bytes state(64 * 1024, 0xab);
  put.frame = bytepack::pack_raw(state);
  put.has_request = true;
  put.request.request_id = 99;
  put.request.problem = "simwork";
  put.request.args = {DataObject(std::int64_t{1})};
  serial::Encoder enc;
  put.encode(enc);
  auto reply = net::pool_round_trip(
      server.endpoint(), static_cast<std::uint16_t>(proto::MessageType::kCheckpointPut),
      enc.take(), 5.0, 5.0);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  serial::Decoder dec(reply.value().payload);
  auto ack = proto::CheckpointPutAck::decode(dec);
  ASSERT_TRUE(ack.ok());
  EXPECT_FALSE(ack.value().accepted);
  EXPECT_EQ(server.replica_holds(), 0u);
  EXPECT_EQ(server.replica_bytes(), 0u);
  conservation::expect_conserved(*cluster.value(), tally);
}

}  // namespace
}  // namespace ns
