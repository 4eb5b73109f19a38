// Standalone NetSolve computational server daemon.
//
//   $ netsolve_server agent_port=9000 [key=value ...]
//     name=serverX         server name reported to the agent
//     agent_host=127.0.0.1 agent address
//     agent_port=9000      agent port (required in practice)
//     agents=h:p,h:p       register with this comma-separated agent list
//                          instead of agent_host/agent_port (HA: workload
//                          reports fan out to every agent; startup succeeds
//                          if at least one registration lands)
//     port=0               own listen port (0 = ephemeral)
//     workers=2            concurrent request capacity
//     speed=1.0            emulated relative speed in (0, 1]
//     rating=0             Mflop rating override (0 = measure host)
//     report_period=0.1    workload report cadence, seconds
//     reregister_period=5  re-register cadence (survives agent restarts)
//     report_threshold=0   min workload delta to transmit a report
//     problems=dgesv,cg    offer only these problems (default: full catalogue)
//     spec_file=path       @PROBLEM-format description overrides (admin tuning)
//     runtime=0            exit after this many seconds (0 = run forever)
//     data_dir=path        durable jobs: write-ahead journal lives here; a
//                          restarted server (same name) replays it, re-queues
//                          unfinished jobs and resumes from checkpoints
//     checkpoint_interval=25  kernel checkpoint cadence in iterations
//     journal_fsync=1      fsync every journal append (0 = buffered)
//     journal_compact=4194304  rewrite the journal once it grows past this
//                          many bytes (0 = never compact)
//     migrate_on_drain=0   on drain, hand running jobs to agent-ranked peers
//     replicas=h:p,h:p     stream every kernel checkpoint to these peer
//                          servers (CHECKPOINT_PUT); if this server is
//                          SIGKILLed mid-solve, a failover-enabled client
//                          re-attaches to a replica, which adopts the job
//                          from the last replicated snapshot
//     checkpoint_compress=1  delta/RLE-compress replicated frames (0 = raw)
//     max_frame=1073741824 largest payload (bytes) a peer may claim in a
//                          frame header; oversized claims are rejected at
//                          decode time (hostile-peer armor)
//     max_conn_buffer=268435456   per-connection buffered-byte budget
//     max_total_buffer=1073741824 process-global buffered-byte ceiling
//     progress_timeout=30  seconds a started frame (or stalled write queue)
//                          may make no progress before the peer is dropped
//                          (slowloris defence; 0 = off)
//     max_connections=1024 accepted-connection cap (idle LRU evicted, then
//                          dials shed with transport BUSY + retry_after)
//     retry_after=0.25     back-off hint stamped into BUSY sheds, seconds
//     mem_budget=0         process-wide byte budget across queued payloads,
//                          running working sets and the replica store
//                          (0 = ungoverned); over-budget admissions shed
//                          retryably instead of growing the heap
//     mem_per_job=0        largest payload + working set one job may account
//                          for (0 = bounded only by mem_budget)
//     spill_dir=path       spill queued-but-cold payloads to disk here and
//                          reload them at dispatch (empty = keep in RAM)
//     replica_budget=67108864  checkpoint replica store byte cap; entries
//                          past it are evicted largest-first
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/strings.hpp"
#include "linalg/blas.hpp"
#include "server/server.hpp"

using namespace ns;

namespace {
volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  auto config = Config::from_args(argc - 1, argv + 1);
  if (!config.ok()) {
    std::fprintf(stderr, "bad arguments: %s\n", config.error().to_string().c_str());
    return 2;
  }

  server::ServerConfig server_config;
  server_config.name = config.value().get_or("name", "server");
  if (const auto agents = config.value().get("agents")) {
    auto list = net::parse_endpoint_list(*agents);
    if (!list || list->empty()) {
      std::fprintf(stderr, "bad agents list '%s' (expected host:port,host:port,...)\n",
                   agents->c_str());
      return 2;
    }
    server_config.agents = std::move(*list);
  } else {
    net::Endpoint agent;
    agent.host = config.value().get_or("agent_host", "127.0.0.1");
    agent.port = static_cast<std::uint16_t>(config.value().get_int_or("agent_port", 9000));
    server_config.agents = {agent};
  }
  server_config.listen.port =
      static_cast<std::uint16_t>(config.value().get_int_or("port", 0));
  server_config.workers = static_cast<int>(config.value().get_int_or("workers", 2));
  server_config.speed_factor = config.value().get_double_or("speed", 1.0);
  server_config.rating_override = config.value().get_double_or("rating", 0.0);
  server_config.report_period_s = config.value().get_double_or("report_period", 0.1);
  server_config.report_threshold = config.value().get_double_or("report_threshold", 0.0);
  server_config.reregister_period_s = config.value().get_double_or("reregister_period", 5.0);
  if (const auto problems = config.value().get("problems")) {
    server_config.problem_filter = strings::split(*problems, ',');
  }
  if (const auto spec_file = config.value().get("spec_file")) {
    std::ifstream in(*spec_file);
    if (!in) {
      std::fprintf(stderr, "cannot read spec_file '%s'\n", spec_file->c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    server_config.spec_overrides = text.str();
  }
  server_config.data_dir = config.value().get_or("data_dir", "");
  server_config.checkpoint_interval =
      static_cast<std::uint64_t>(config.value().get_int_or("checkpoint_interval", 25));
  server_config.journal_fsync = config.value().get_int_or("journal_fsync", 1) != 0;
  server_config.journal_compact_bytes = static_cast<std::uint64_t>(config.value().get_int_or(
      "journal_compact", static_cast<std::int64_t>(server_config.journal_compact_bytes)));
  server_config.migrate_on_drain = config.value().get_int_or("migrate_on_drain", 0) != 0;
  if (const auto replicas = config.value().get("replicas")) {
    auto list = net::parse_endpoint_list(*replicas);
    if (!list || list->empty()) {
      std::fprintf(stderr, "bad replicas list '%s' (expected host:port,host:port,...)\n",
                   replicas->c_str());
      return 2;
    }
    server_config.replicas = std::move(*list);
  }
  server_config.checkpoint_compress =
      config.value().get_int_or("checkpoint_compress", 1) != 0;
  server_config.guard.max_frame_bytes = static_cast<std::size_t>(config.value().get_int_or(
      "max_frame", static_cast<std::int64_t>(server_config.guard.max_frame_bytes)));
  server_config.guard.max_conn_buffer_bytes =
      static_cast<std::size_t>(config.value().get_int_or(
          "max_conn_buffer", static_cast<std::int64_t>(server_config.guard.max_conn_buffer_bytes)));
  server_config.guard.max_total_buffer_bytes =
      static_cast<std::size_t>(config.value().get_int_or(
          "max_total_buffer", static_cast<std::int64_t>(server_config.guard.max_total_buffer_bytes)));
  server_config.guard.frame_progress_timeout_s = config.value().get_double_or(
      "progress_timeout", server_config.guard.frame_progress_timeout_s);
  server_config.guard.max_connections = static_cast<std::size_t>(config.value().get_int_or(
      "max_connections", static_cast<std::int64_t>(server_config.guard.max_connections)));
  server_config.guard.retry_after_s =
      config.value().get_double_or("retry_after", server_config.guard.retry_after_s);
  server_config.mem.global_bytes = static_cast<std::uint64_t>(
      config.value().get_int_or("mem_budget", 0));
  server_config.mem.per_job_bytes = static_cast<std::uint64_t>(
      config.value().get_int_or("mem_per_job", 0));
  server_config.mem.spill_dir = config.value().get_or("spill_dir", "");
  server_config.mem.replica_budget_bytes = static_cast<std::uint64_t>(
      config.value().get_int_or(
          "replica_budget", static_cast<std::int64_t>(server_config.mem.replica_budget_bytes)));
  const double runtime = config.value().get_double_or("runtime", 0.0);

  auto server = server::ComputeServer::start(std::move(server_config));
  if (!server.ok()) {
    std::fprintf(stderr, "server failed to start: %s\n", server.error().to_string().c_str());
    return 1;
  }
  std::printf("netsolve_server '%s' on %s (id=%u, %.0f Mflop/s, gemm %s)\n",
              server.value()->name().c_str(),
              server.value()->endpoint().to_string().c_str(), server.value()->server_id(),
              server.value()->rated_mflops(), linalg::gemm_isa());
  std::fflush(stdout);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  const Deadline deadline = runtime > 0 ? Deadline(runtime) : Deadline::never();
  std::uint64_t last_completed = 0;
  // A drained server (cmd=drain from netsolve_client) is quiescent and
  // deregistered; exiting lets rolling restarts replace the process.
  while (g_stop == 0 && !deadline.expired() && !server.value()->crashed() &&
         !server.value()->drained()) {
    sleep_seconds(0.2);
    const auto completed = server.value()->completed();
    if (completed != last_completed) {
      std::printf("[%s] completed=%llu workload=%.1f\n", server.value()->name().c_str(),
                  static_cast<unsigned long long>(completed),
                  server.value()->current_workload());
      std::fflush(stdout);
      last_completed = completed;
    }
  }
  server.value()->stop();
  std::printf("netsolve_server shut down\n");
  return 0;
}
