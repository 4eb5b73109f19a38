// The computational server daemon.
//
// Registers its problem catalogue and rating with an agent, then serves
// SolveRequests from clients. Connections live on an epoll reactor
// (net/reactor.hpp): frames from any number of keep-alive connections are
// decoded on one event loop and dispatched to a fixed handler pool, so
// concurrent requests pipeline over a single client connection. A solve
// handler admits its job into the wait queue, which owns it until a worker
// slot is granted, and returns; a queued job holds no thread. Workload — the
// number of requests running or waiting plus any configured synthetic
// background load — is reported to the agent periodically with a change
// threshold, reproducing the original system's traffic-bounded reporting.
//
// Heterogeneous pools on one machine are emulated with `speed_factor`
// in (0, 1]: after executing a request natively, the server busy-spins
// elapsed * (1/speed - 1) extra seconds, and it registers a rating scaled by
// the same factor, so the agent's predictions and the observed service
// times stay mutually consistent.
//
// Failure injection hooks exercise the client's fault-tolerance path:
// error replies, dropped connections mid-request, or a full crash.
#pragma once

#include <array>
#include <atomic>
#include <deque>
#include <map>
#include <utility>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/checkpoint.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/memgov.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "dsl/registry.hpp"
#include "net/reactor.hpp"
#include "net/shaped_link.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "proto/messages.hpp"
#include "server/journal.hpp"

namespace ns::server {

struct FailureSpec {
  enum class Mode {
    kNone,          // healthy
    kErrorReply,    // reply with SERVER_FAILURE instead of executing
    kDropRequest,   // close the connection mid-request, no reply
    kHangRequest,   // accept the request, never reply (client must time out)
    kCrash,         // kill the whole server (listener closed, all drops)
  };
  Mode mode = Mode::kNone;
  /// Per-request probability of triggering (independent Bernoulli draws).
  double probability = 0.0;
  /// Additionally trigger once after exactly this many requests (<0 = off).
  std::int64_t after_requests = -1;
};

/// How a speed_factor < 1 stretches service time. kSpin occupies the host
/// CPU for the extra time (honest when emulated servers share one
/// processor); kSleep yields it (honest when each server stands in for an
/// independent remote machine — the multi-machine scheduling experiments).
enum class SlowdownMode { kSpin, kSleep };

/// Overload control for the admission queue (see DESIGN.md §13). The
/// defaults keep the pre-existing behavior observable by tests — EDF is
/// benign without deadlines (it degrades to FIFO), the CoDel shedder and
/// per-client quotas are opt-in, and the AIMD limit starts disabled so the
/// static worker count still rules unless a deployment turns it on. The
/// feasibility slack (20 ms) and the AIMD floor (1), ceiling (the worker
/// count) and decrease factor (0.7) are fixed in server.cpp.
struct AdmissionConfig {
  /// Order the wait queue earliest-deadline-first instead of by arrival.
  /// Jobs without a deadline sort last (FIFO among themselves).
  bool edf = true;
  /// Shed at admission when the remaining deadline budget is already below
  /// the predicted service time (complexity model / rated speed), and shed
  /// at dequeue when the predicted completion would overshoot the deadline.
  bool shed_infeasible = true;
  /// Shed jobs whose deadline lapsed while they queued at dequeue time,
  /// retryably, instead of computing an answer nobody is waiting for.
  /// Exists as a knob only so benches can measure the uncontrolled baseline.
  bool shed_expired = true;
  /// CoDel-style sojourn shedder: once the queue wait of dequeued jobs has
  /// stayed above `codel_target_s` for a full `codel_interval_s`, shed
  /// queued jobs at dequeue with the classic interval/sqrt(count) cadence
  /// until the sojourn drops back under the target. 0 disables.
  double codel_target_s = 0.0;
  double codel_interval_s = 0.5;
  /// Per-client fair share: with a bounded queue (max_queue > 0), one
  /// client may occupy at most max(1, quota_fraction * max_queue) waiting
  /// slots; requests beyond that are rejected retryably so a greedy client
  /// cannot starve the rest. 0 disables. Requests without a client id
  /// (older peers) are exempt.
  double quota_fraction = 0.0;
  /// AIMD concurrency limit under the static worker count: additive
  /// increase (+1 after a limit's worth of clean completions, up to the
  /// worker count), multiplicative decrease (* 0.7, floored at 1) on every
  /// overload signal (deadline or CoDel shed), decreases spaced at least
  /// 100 ms apart so one burst does not collapse the limit.
  bool aimd = false;
};

struct ServerConfig {
  std::string name = "server";
  net::Endpoint listen{"127.0.0.1", 0};
  /// Agents to register with. Startup succeeds if at least one registration
  /// lands; the rest are retried in the background with decorrelated-jitter
  /// backoff, and workload reports fan out to every registered agent. The
  /// RegisterAck's peer list grows this set automatically, so pointing a
  /// server at one agent of a federated mesh reaches the whole mesh.
  std::vector<net::Endpoint> agents;
  /// Max requests executing concurrently; excess waits (and counts toward
  /// the reported workload). The handler pool has this many threads plus
  /// four for control messages and admission.
  int workers = 2;
  /// Reject (SERVER_OVERLOADED, retryable) instead of queueing once this
  /// many requests are already waiting; 0 disables the hard queue bound.
  int max_queue = 0;
  /// Adaptive overload control layered on top of the queue bound.
  AdmissionConfig admission;
  /// Emulated relative speed in (0, 1]; see the file comment.
  double speed_factor = 1.0;
  SlowdownMode slowdown_mode = SlowdownMode::kSpin;
  /// Reported Mflop rating; 0 measures the host with linpack_rating().
  double rating_override = 0.0;
  /// Workload report cadence.
  double report_period_s = 0.1;
  /// Re-register with every agent this often (0 = only at startup).
  /// Registration is idempotent (the agent refreshes by name+endpoint and
  /// judges restarts by incarnation), so this makes servers survive an agent
  /// restart: the new agent learns the pool within one period. Each period
  /// is jittered by uniform(0.5, 1.5)x so a fleet does not re-register in
  /// lockstep after an agent reboot.
  double reregister_period_s = 5.0;
  /// Suppress a report unless the workload moved at least this much (in job
  /// units) since the last transmitted value. 0 reports every period.
  double report_threshold = 0.0;
  /// Synthetic competing load of L jobs: added to the reported workload AND
  /// stretching every service time by (1 + L) — the processor-sharing model
  /// the agent's predictor assumes.
  double background_load = 0.0;
  /// Shape applied to server->client reply traffic.
  net::LinkShape link;
  double io_timeout_s = 10.0;
  /// Transport hostile-peer armor (frame caps, buffer budgets, progress
  /// deadlines, connection cap). Server defaults keep kMaxPayload frames —
  /// large matrix blobs are the workload — but bound buffers and kill
  /// no-progress peers.
  net::GuardConfig guard;
  FailureSpec failure;
  std::uint64_t seed = 0x5e1f;
  /// Offer only these problems from the builtin catalogue (empty = all).
  /// Models the original deployments where different hosts wrapped
  /// different libraries (one machine has LAPACK, another ITPACK, ...).
  std::vector<std::string> problem_filter;
  /// Optional problem-description overrides in the @PROBLEM file format
  /// (see dsl/specfile.hpp). Lets an administrator re-tune descriptions and
  /// complexity models without recompiling — the original system's config
  /// workflow. Each overriding spec must match the builtin's signature
  /// (input/output names may change, types and arity may not).
  std::string spec_overrides;

  // ---- durability (write-ahead journal / checkpoint / migration) ----
  /// When non-empty, the server keeps a write-ahead job journal at
  /// <data_dir>/<name>.journal: every job transition is persisted before it
  /// takes externally visible effect, and a restarted server replays the
  /// journal to re-enqueue unfinished jobs (deadline budgets decayed by the
  /// downtime) and resume started ones from their last checkpoint. Empty
  /// (the default) disables the journal.
  std::string data_dir;
  /// fdatasync every journal append (the WAL guarantee). Off trades the
  /// durability of the last few records for append throughput.
  bool journal_fsync = true;
  /// Iterations between kernel state snapshots (0 = publish progress only,
  /// never serialize). Also the granularity drain migration can resume at.
  std::uint64_t checkpoint_interval = 25;
  /// Compact the journal (rewrite it with only live records) once it grows
  /// past this many bytes. 0 = compact only at startup.
  std::uint64_t journal_compact_bytes = 4u << 20;
  /// When the drain deadline lapses, hand running jobs (with their latest
  /// checkpoint) to a peer server via JOB_TRANSFER instead of plainly
  /// cancelling them; the displaced client gets a kMigrated forwarding
  /// address to re-attach to.
  bool migrate_on_drain = false;
  /// Peer servers to stream checkpoint frames to (CHECKPOINT_PUT). With
  /// replicas configured, every kernel snapshot also lands — delta/RLE
  /// compressed — on each peer, so a *crash* (not a drain) of this server
  /// loses at most one checkpoint interval: clients re-dispatch to a replica
  /// holder via CHECKPOINT_FETCH(adopt) and the job resumes there.
  std::vector<net::Endpoint> replicas;
  /// Compress replicated frames (XOR delta against the previous snapshot +
  /// byte-plane shuffle + run-length; see common/bytepack.hpp). Off sends
  /// raw frames — the bench baseline.
  bool checkpoint_compress = true;

  // ---- memory governance (byte-accounted admission + payload spill) ----
  /// Budgets and spill policy for the per-server MemGovernor: queued
  /// payloads, running working sets, and replica-store entries are charged
  /// against mem.global_bytes; jobs that cannot fit are shed retryably with
  /// a retry_after hint, and queued-but-cold payloads spill to
  /// mem.spill_dir through the vfs seam. See common/memgov.hpp.
  mem::MemBudgetConfig mem;
};

class ComputeServer {
 public:
  /// Rate the host (or take the override), register the builtin catalogue
  /// with the agent, and start serving.
  static Result<std::unique_ptr<ComputeServer>> start(ServerConfig config);

  ~ComputeServer();
  ComputeServer(const ComputeServer&) = delete;
  ComputeServer& operator=(const ComputeServer&) = delete;

  net::Endpoint endpoint() const { return endpoint_; }
  proto::ServerId server_id() const noexcept { return server_id_.load(); }
  const std::string& name() const noexcept { return config_.name; }
  double rated_mflops() const noexcept { return rated_mflops_; }

  /// Runtime controls for the experiments.
  void inject_failure(const FailureSpec& failure);
  void set_background_load(double load);

  /// Requests taken in, readmitted jobs included (recovered ones are not).
  std::uint64_t requests() const noexcept { return metrics_.requests.value(); }
  /// Requests fully executed (successful replies sent).
  std::uint64_t completed() const noexcept { return metrics_.completed.value(); }
  /// Requests shed because their deadline budget lapsed before execution:
  /// shed_admission() + shed_dequeue().
  std::uint64_t shed() const noexcept { return shed_admission() + shed_dequeue(); }
  /// Requests shed at admission: remaining budget below predicted service.
  std::uint64_t shed_admission() const noexcept { return metrics_.shed_admission.value(); }
  /// Requests shed at dequeue: deadline lapsed while queued, dropped
  /// retryably before any compute happened.
  std::uint64_t shed_dequeue() const noexcept { return metrics_.shed_dequeue.value(); }
  /// Requests shed by the CoDel sojourn controller.
  std::uint64_t shed_codel() const noexcept { return metrics_.shed_codel.value(); }
  /// Requests rejected by the per-client fair-share quota.
  std::uint64_t shed_quota() const noexcept { return metrics_.shed_quota.value(); }
  /// Requests rejected because the wait queue was full.
  std::uint64_t rejected() const noexcept { return metrics_.rejected.value(); }
  /// Requests whose kernel failed (bad arguments, allocation failure).
  std::uint64_t exec_errors() const noexcept { return metrics_.exec_errors.value(); }
  /// Durable-required requests shed because the journal is unavailable.
  std::uint64_t store_degraded_shed() const noexcept {
    return metrics_.store_degraded_shed.value();
  }
  /// The current (possibly AIMD-adapted) concurrency limit.
  int concurrency_limit() const;
  /// Recent p95 of queue sojourn (the value piggybacked on workload
  /// reports); 0 until anything has been dequeued.
  double sojourn_p95() const;
  /// Requests cancelled while still waiting for a worker slot.
  std::uint64_t cancelled_queued() const noexcept { return metrics_.cancelled_queued.value(); }
  /// Requests cancelled mid-compute (kernel checkpoint unwound).
  std::uint64_t cancelled_running() const noexcept { return metrics_.cancelled_running.value(); }
  /// New requests refused because the server was draining.
  std::uint64_t drain_rejected() const noexcept { return metrics_.drain_rejected.value(); }
  /// Current workload as would be reported (running + waiting + background).
  double current_workload() const;
  /// Transport guard observability: live accepted connections and bytes
  /// buffered across them (read + write sides). The hostile-peer tests
  /// assert these stay inside the configured GuardConfig budgets.
  std::size_t transport_connections() const { return reactor_.connection_count(); }
  std::size_t transport_buffered_bytes() const noexcept { return reactor_.buffered_bytes(); }

  // ---- graceful drain (rolling restarts) ----
  //
  // State machine: serving -> draining -> drained. Entering `draining`
  // deregisters from every agent (traffic steers away immediately) and
  // rejects new SolveRequests with a retryable SERVER_OVERLOADED; queued and
  // in-flight jobs get `deadline_s` (default: the io timeout) to finish,
  // then anything still outstanding is cancelled through its token. The
  // listener stays up throughout — pings, metrics scrapes and CANCELs are
  // still served — so `drained` means "quiescent", not "stopped"; call
  // stop() (or exit the process) afterwards.

  /// Start draining without blocking. Returns true if this call initiated
  /// the drain, false if one was already running (idempotent).
  bool start_drain(double deadline_s = 0.0);
  /// Drain and block until quiescent.
  void drain(double deadline_s = 0.0);
  bool draining() const noexcept { return draining_.load(); }
  bool drained() const noexcept { return drained_.load(); }

  /// Stop serving and wait for in-flight work to drain.
  void stop();
  bool crashed() const noexcept { return crashed_.load(); }

  // ---- durability ----
  /// Unfinished jobs re-admitted from the journal at startup.
  std::uint64_t jobs_recovered() const noexcept { return metrics_.jobs_recovered.value(); }
  /// Running jobs handed to a peer server during drain.
  std::uint64_t jobs_migrated() const noexcept { return metrics_.jobs_migrated.value(); }
  /// Recovered/transferred jobs whose kernel resumed from a checkpoint
  /// rather than restarting from scratch.
  std::uint64_t jobs_resumed() const noexcept { return metrics_.jobs_resumed.value(); }
  /// Highest checkpoint iteration any resumed job restarted from.
  std::uint64_t last_resume_iteration() const noexcept {
    return last_resume_iteration_.load();
  }
  /// Journal records appended since startup.
  std::uint64_t journal_appends() const noexcept { return metrics_.journal_appends.value(); }
  /// True once a persistent write failure fail-stopped the journal and the
  /// server dropped to explicitly non-durable mode (advertised as
  /// durable=false in workload reports; durable-required jobs are shed
  /// retryably).
  bool durability_degraded() const noexcept { return degraded_.load(); }
  /// Checkpoint frames accepted by replica peers.
  std::uint64_t checkpoints_replicated() const noexcept {
    return metrics_.store_ckpt_replicated.value();
  }
  /// Jobs adopted here from the replica store after an origin crash.
  std::uint64_t failover_resumes() const noexcept { return metrics_.store_failover_resume.value(); }
  /// Replicated checkpoints currently held for other servers' jobs.
  std::size_t replica_holds() const;
  /// Bytes the replica store currently accounts for.
  std::size_t replica_bytes() const;
  /// Ceiling on the bytes of terminal results kept for PROBE re-attach.
  /// Oldest results go first; the newest one stays even when it alone is
  /// larger, so the caller that just finished can always re-attach.
  static constexpr std::size_t kMaxStoredResultBytes = 32u << 20;  // 32 MiB
  /// Output bytes currently held for PROBE re-attach.
  std::size_t stored_result_bytes() const;

  // ---- memory governance ----
  /// The byte account charged by admission, dispatch, and the replica
  /// store; tests assert peak() never exceeds budget().
  const mem::MemGovernor& governor() const noexcept { return governor_; }
  /// Queued payloads currently parked in the spill store.
  std::int64_t spilled_jobs() const noexcept { return spilled_jobs_.load(); }
  /// Jobs shed because their payload or working set did not fit a budget.
  std::uint64_t mem_shed() const noexcept { return metrics_.mem_shed.value(); }
  /// Emulated unclean death (SIGKILL): freeze the journal (nothing further
  /// reaches disk), suppress all replies and terminal accounting, and tear
  /// the threads down. Unlike stop(), in-flight jobs look — to clients and
  /// to the journal — as if the power was cut mid-write; a restart is
  /// expected to replay the journal and finish them.
  void crash();

 private:
  /// Registry handles resolved once at startup, so the request path stays
  /// lock-free. Each counter keeps this server's count (the accessors above)
  /// and feeds the process-wide total; histograms aggregate across servers;
  /// gauges are per-server (keyed by name) since depths do not sum.
  struct ServerMetrics {
    explicit ServerMetrics(const std::string& name);
    metrics::ScopedCounter requests{metrics::counter("server.requests_total")};
    metrics::ScopedCounter completed{metrics::counter("server.completed_total")};
    metrics::ScopedCounter admit{metrics::counter("server.admit_total")};
    metrics::ScopedCounter shed_admission{metrics::counter("server.shed_admission_total")};
    metrics::ScopedCounter shed_dequeue{metrics::counter("server.shed_dequeue_total")};
    metrics::ScopedCounter shed_codel{metrics::counter("server.shed_codel_total")};
    metrics::ScopedCounter shed_quota{metrics::counter("server.shed_quota_total")};
    metrics::ScopedCounter aimd_backoff{metrics::counter("server.aimd_backoff_total")};
    metrics::ScopedCounter rejected{metrics::counter("server.rejected_total")};
    metrics::ScopedCounter exec_errors{metrics::counter("server.exec_errors_total")};
    metrics::ScopedCounter cancelled_queued{metrics::counter("server.cancelled_queued_total")};
    metrics::ScopedCounter cancelled_running{metrics::counter("server.cancelled_running_total")};
    metrics::ScopedCounter cancel_requests{metrics::counter("server.cancel_requests_total")};
    metrics::ScopedCounter drain_rejected{metrics::counter("server.drain_rejected_total")};
    metrics::ScopedCounter journal_appends{metrics::counter("server.journal_appends_total")};
    metrics::ScopedCounter jobs_recovered{metrics::counter("server.jobs_recovered_total")};
    metrics::ScopedCounter jobs_migrated{metrics::counter("server.jobs_migrated_total")};
    metrics::ScopedCounter jobs_resumed{metrics::counter("server.jobs_resumed_total")};
    // Storage-fault armor (store.*): disk failures survived, degradation,
    // and checkpoint replication. Raw vs wire bytes expose the compression
    // ratio (the `store.ckpt_bytes_total{raw,wire}` pair of DESIGN.md §17).
    metrics::ScopedCounter store_write_errors{metrics::counter("store.write_errors_total")};
    metrics::ScopedCounter store_degraded_shed{metrics::counter("store.degraded_shed_total")};
    metrics::ScopedCounter store_ckpt_replicated{metrics::counter("store.ckpt_replicated_total")};
    metrics::ScopedCounter store_ckpt_raw_bytes{metrics::counter("store.ckpt_raw_bytes_total")};
    metrics::ScopedCounter store_ckpt_wire_bytes{metrics::counter("store.ckpt_wire_bytes_total")};
    metrics::ScopedCounter store_failover_resume{metrics::counter("store.failover_resume_total")};
    metrics::Gauge& store_degraded;
    // Memory governance (mem.*): byte-accounted admission, payload spill,
    // and allocation-failure hardening.
    metrics::ScopedCounter mem_shed{metrics::counter("mem.shed_total")};
    metrics::ScopedCounter mem_spilled_bytes{metrics::counter("mem.spilled_bytes_total")};
    metrics::ScopedCounter mem_spill_reloads{metrics::counter("mem.spill_reloads_total")};
    metrics::ScopedCounter mem_spill_reload_errors{
        metrics::counter("mem.spill_reload_errors_total")};
    metrics::ScopedCounter mem_bad_alloc{metrics::counter("mem.bad_alloc_total")};
    metrics::ScopedCounter mem_replica_evicted{metrics::counter("mem.replica_evicted_total")};
    metrics::ScopedCounter mem_forced_charge{metrics::counter("mem.forced_charge_total")};
    metrics::Gauge& mem_accounted;
    metrics::Gauge& mem_peak;
    metrics::Gauge& mem_budget;
    metrics::Gauge& mem_spill_active;
    metrics::Histogram& span_queue_wait{metrics::histogram("span.server.queue_wait_s")};
    metrics::Histogram& queue_sojourn_s{metrics::histogram("server.queue_sojourn_s")};
    metrics::Histogram& span_compute{metrics::histogram("span.server.compute_s")};
    metrics::Gauge& queue_depth;
    metrics::Gauge& concurrency_limit;
    metrics::Gauge& draining;
  };

  /// One admitted SolveRequest, visible (keyed by request_id) from its
  /// admission until its reply: the CANCEL handler and the drain sweep trip
  /// the token, which the kernel polls at its checkpoints, and unlink the
  /// job if it still waits. request_ids are client-minted, so collisions
  /// across clients are possible — hence a multimap; a cancel simply trips
  /// every job carrying the id. While it waits, the wait queue owns the job;
  /// once granted, the thread that runs it does.
  struct ActiveJob {
    cancel::Token token;
    /// True until the job starts running (a granted job still in the pool's
    /// FIFO counts as queued).
    std::atomic<bool> queued{true};
    /// The request itself lives with the job so journal compaction and
    /// drain migration can re-serialize it.
    proto::SolveRequest request;
    /// The connection a live solve replies on; empty for recovered,
    /// transferred and adopted jobs, whose result is stored for PROBE.
    net::ConnHold conn;
    /// Started at receipt (live solves) or at readmission; span offsets.
    Stopwatch since_receipt;
    /// Started at admission: result.queue_seconds and the queue-wait span.
    Stopwatch queue_watch;
    /// Iteration-granular progress/snapshot channel bound around execute().
    checkpoint::Token ckpt;
    std::atomic<bool> started{false};
    /// Set by the drain sweep just before cancelling: the running thread
    /// forwards the latest checkpoint to a peer instead of replying
    /// kCancelled.
    std::atomic<bool> migrate{false};
    /// Recovered or transferred-in jobs bypass the admission rejections
    /// (queue bound, quota, infeasibility) — they were already admitted
    /// once; shedding them now would lose accepted work.
    bool readmit = false;
    /// An ADMITTED record for this job is on disk (terminal record owed).
    bool journaled = false;
    // ---- memory accounting (mutated under jobs_mu_ until dispatch; owner-
    // thread-only afterwards) ----
    /// Serialized payload size charged to the governor at admission.
    std::uint64_t payload_bytes = 0;
    /// Working-set estimate charged by the dispatcher at slot grant.
    std::uint64_t ws_bytes = 0;
    /// Bytes currently charged to the governor on this job's behalf;
    /// released in one step when the job reaches any terminal path.
    std::uint64_t mem_charged_bytes = 0;
    /// Payload parked in the spill store; request.args is empty until the
    /// granted job reloads it as it starts (guarded by active_jobs_mu_
    /// against concurrent journal compaction, which must read the spill
    /// file instead).
    bool spilled = false;
    std::int64_t admitted_wall_us = 0;        // ADMITTED record stamp
    double admit_deadline_remaining_s = 0.0;  // budget left at admission
    /// Absolute deadline fixed at enqueue (1e300 = none); read by the
    /// migration path to compute the hand-off budget.
    double deadline_abs = 1e300;

    // ---- the wait queue's view (under jobs_mu_) ----
    std::pair<double, std::uint64_t> queue_key;  // EDF (deadline, seq) or (0, seq)
    double enqueue_time = 0.0;                   // now_seconds() at admission
    double est_service_s = 0.0;                  // predicted compute time (0 = unknown)
    /// Payload bytes released to the spill store while waiting; the
    /// dispatcher re-charges them at grant (the reload re-materializes the
    /// payload in RAM).
    std::uint64_t spilled_bytes = 0;
    /// Set by the dispatcher when it sheds the job: why, and the
    /// backpressure hint for the reply.
    const char* shed_reason = nullptr;
    double retry_after_s = 0.0;
    /// In wait_queue_: admitted, and neither granted, shed nor unlinked.
    bool waiting = false;
    /// The admitting handler is writing the payload to the spill store with
    /// jobs_mu_ dropped. The dispatcher still grants or sheds the job, but
    /// leaves acting on it to that handler; cancel and stop leave it queued.
    bool spilling = false;

    // ---- checkpoint replication state ----
    // Touched only from the owning kernel thread (the on_snapshot callback
    // fires synchronously at loop heads), so no lock is needed.
    /// One replica peer's view of this job.
    struct ReplPeer {
      bool sent_request = false;      // peer holds the SolveRequest already
      std::uint64_t acked_iteration = 0;  // last frame the peer accepted
      double retry_at = 0.0;          // now_seconds() backoff after a failure
    };
    std::vector<ReplPeer> repl_peers;
    /// Previous snapshot (uncompressed) — the delta base for the next frame.
    serial::Bytes repl_prev_state;
    std::uint64_t repl_prev_iteration = 0;
  };

  /// One agent this server registers with. `id` is agent-local (each agent
  /// assigns its own), so reports carry the per-link id. Owned exclusively
  /// by the report thread once the server is running (startup registration
  /// happens-before the thread spawns); no lock needed.
  struct AgentLink {
    net::Endpoint endpoint;
    proto::ServerId id = proto::kInvalidServerId;
    double next_attempt_time = 0.0;  // now_seconds() of the next (re)register
    double backoff_s = 0.0;          // decorrelated-jitter failure backoff
  };

  /// What dispatch passes decided, for their caller to carry out once
  /// jobs_mu_ is released: jobs granted a worker slot, and jobs shed at
  /// dequeue (those with shed_reason and retry_after_s set).
  using Decisions = std::vector<std::shared_ptr<ActiveJob>>;

  ComputeServer(ServerConfig config, net::TcpListener listener, double rated_mflops);

  /// Register with one agent; on success updates the link id and merges the
  /// ack's peer agents into `discovered`.
  Status register_link(AgentLink& link, std::vector<net::Endpoint>* discovered);
  /// (Re)register every link whose attempt time is due; schedules the next
  /// attempt per link (jittered period on success, backoff on failure) and
  /// adopts newly discovered peer agents.
  void maintain_registrations();
  /// Reactor dispatch: one complete, CRC-valid frame from one connection.
  /// Runs on a pool thread; returns false to drop the connection (protocol
  /// violation, injected drop, shutdown).
  bool handle_message(const net::ReactorConnPtr& conn, net::Message&& msg);
  /// The SolveRequest path: failure injection, admission, and — when the
  /// job is granted a slot at once — execution and reply on this thread.
  bool handle_solve(const net::ReactorConnPtr& conn, const serial::Bytes& payload);
  void report_loop();
  void send_workload_report(double workload);
  /// Predicted service time for one request from the problem's complexity
  /// model and this server's rating (0 = no model / unknown problem).
  double estimate_service_seconds(const proto::SolveRequest& request) const;
  // ---- admission queue internals; all *_locked require jobs_mu_ ----
  /// Admission for one registered job: the rejections (skipped on readmit),
  /// the payload charge, the enqueue and a dispatch pass, then the payload
  /// spill if the job still waits. Returns true when `job` itself was
  /// granted a slot: the caller runs it. Every other decision is carried out
  /// here.
  bool admit(const std::shared_ptr<ActiveJob>& job);
  /// Fill free worker slots from the wait queue in EDF order, shedding
  /// expired / CoDel-flagged jobs along the way, and add the decisions to
  /// `decided`. Called after every enqueue and every slot release; the
  /// caller carries the decisions out.
  void dispatch_locked(Decisions& decided);
  /// The shed replies and the launches; jobs_mu_ not held.
  void carry_out(Decisions&& decided);
  /// Give a granted slot back and carry out the dispatch pass that follows.
  /// `clean_service_s` is a successful job's service time (AIMD growth and
  /// the retry_after EWMA).
  void release_slot(std::optional<double> clean_service_s = std::nullopt);
  /// Take `job` out of the wait queue and the waiting counts.
  void unqueue_locked(ActiveJob& job);
  int effective_concurrency_locked() const;
  /// Backpressure hint: expected time until a waiting slot frees, from the
  /// service-time EWMA and the current queue depth.
  double retry_after_locked() const;
  /// The CoDel control law, evaluated on the head-of-queue sojourn.
  bool codel_should_drop_locked(double sojourn, double now);
  void aimd_on_success_locked();
  void aimd_on_overload_locked(double now);
  void record_sojourn_locked(double sojourn);
  double sojourn_p95_locked() const;
  /// Decide failure injection for one request; returns the triggered mode.
  FailureSpec::Mode roll_failure();
  /// Trip the token of every active job carrying `request_id`, and unlink
  /// and answer (kCancelled) those still waiting; returns the most-advanced
  /// state found (running > queued > completed/unknown).
  proto::CancelOutcome cancel_jobs(std::uint64_t request_id);
  /// The drain worker: deregister, wait out the queue, cancel stragglers.
  void drain_work(double deadline_s);
  /// Stop or crash: unlink every waiting job and drop it as a crash would —
  /// its memory released, no terminal record, no count and no reply (its
  /// connection is closed), so replay re-admits it.
  void abandon_queued_jobs();
  /// End one job with no terminal state (see abandon_queued_jobs).
  void abandon(const std::shared_ptr<ActiveJob>& job);
  /// Fire-and-forget DeregisterServer to every agent this server registered
  /// with, so rankings exclude it immediately.
  void deregister_from_agents();

  // ---- durability internals ----
  //
  // Lock order: journal_mu_ before results_mu_ / active_jobs_mu_; never the
  // reverse, and jobs_mu_ is never held across a journal append. The
  // terminal protocol (finish_job) runs entirely under journal_mu_ so a
  // concurrent compaction sees each job either still active (re-journals
  // its ADMITTED chain) or already in the result store (re-journals
  // COMPLETED) — never in between, which is what makes compaction unable
  // to drop a job.

  /// mkdir the data dir, replay + open the journal, rebuild unfinished jobs
  /// (admitted by start() once the reactor is up), and compact the replayed
  /// history. Called once from start().
  Status open_journal();
  void restore_from_replay(ReplaySummary replay);
  /// Run a granted job on the reactor's handler pool, whose threads stop()
  /// joins.
  void launch(std::shared_ptr<ActiveJob> job);
  /// Re-admit a job another incarnation or peer accepted first: register it,
  /// journal its ADMITTED record and the carried snapshot (copied only when
  /// journaled), install the snapshot to resume from, and admit it; it
  /// waits in the wait queue like a live solve.
  void readmit(proto::SolveRequest request, double deadline_s,
               checkpoint::Snapshot snapshot);
  /// Append one record; silent no-op without an open journal.
  void journal_append(const JournalRecord& record);
  void journal_append_locked(const JournalRecord& record);
  /// Persist the ADMITTED record and stamp the job's recovery fields.
  void journal_admit(ActiveJob& job, double deadline_remaining_s);
  /// Terminal accounting: journal the terminal record, store the result for
  /// late probes, and drop the job from the active table. Takes the result
  /// by move and returns it shared with the store, so the reply and PROBE
  /// read the same outputs and nothing copies them.
  std::shared_ptr<const proto::SolveResult> finish_job(const std::shared_ptr<ActiveJob>& job,
                                                       proto::SolveResult&& result);
  void store_result(std::uint64_t request_id,
                    std::shared_ptr<const proto::SolveResult> result);
  /// Rewrite the journal with only live records once it outgrows the bound.
  void maybe_compact();
  std::vector<JournalRecord> collect_live_records_locked();
  /// Execution and terminal accounting for one granted job, live or not:
  /// reload a spilled payload, run the kernel, then reply(). A stop or
  /// crash ends it with no reply (abandon).
  void run(const std::shared_ptr<ActiveJob>& job);
  /// finish_job, then send the result on the job's connection if it has one.
  void reply(const std::shared_ptr<ActiveJob>& job, proto::SolveResult&& result);
  /// A waiting job reached by a cancel: answered kCancelled (or, once the
  /// server is stopping, abandoned).
  void cancel_queued(const std::shared_ptr<ActiveJob>& job);
  void erase_active_job(const std::shared_ptr<ActiveJob>& job,
                        std::uint64_t request_id);
  /// PROBE: the most-advanced state known for request_id.
  proto::ProbeReply probe_job(const proto::ProbeRequest& probe);
  /// JOB_TRANSFER receive side: admit the handed-over job and seed its
  /// checkpoint token from the carried snapshot.
  proto::TransferAck accept_transfer(proto::JobTransfer transfer);
  /// Persistent journal failure: fail-stop durability and advertise it.
  /// Requires journal_mu_ (the trigger sites already hold it).
  void enter_degraded_locked(const char* what);
  /// Stream one checkpoint frame for `job` to every configured replica.
  /// Runs on the job's kernel thread (on_snapshot callback).
  void replicate_checkpoint(ActiveJob& job, const checkpoint::Snapshot& snap);
  /// CHECKPOINT_PUT receive side: store (or delta-patch) a peer's frame.
  proto::CheckpointPutAck accept_checkpoint(proto::CheckpointPut put);
  /// CHECKPOINT_FETCH: report a held checkpoint; with adopt, re-admit the
  /// job here (the crash-time analogue of accept_transfer).
  proto::CheckpointFetchReply handle_checkpoint_fetch(const proto::CheckpointFetch& fetch);
  /// Drain-side migration: hand `job`'s latest checkpoint to a peer. On
  /// success rewrites `result` into kMigrated + the forwarding address.
  bool migrate_job(ActiveJob& job, proto::SolveResult& result);

  // ---- memory governance internals ----
  /// Working-set estimate for one request (factor * payload, floored).
  std::uint64_t estimate_working_set_bytes(const proto::SolveRequest& request) const;
  /// True when a queued job's payload should go to disk: spill enabled,
  /// payload large enough, and (when governed) accounted bytes past the
  /// watermark.
  bool should_spill_locked(const ActiveJob& job) const;
  /// Park `job`'s encoded request in the spill store. Called with jobs_mu_
  /// NOT held (does I/O); takes active_jobs_mu_ to swap the args out so a
  /// concurrent journal compaction never sees a half-cleared request.
  bool spill_job(const std::shared_ptr<ActiveJob>& job);
  /// Re-materialize a spilled payload at dispatch. On failure the caller
  /// sheds the job retryably.
  Status reload_spilled(const std::shared_ptr<ActiveJob>& job);
  /// Release every byte charged on `job`'s behalf and drop its spill file.
  /// Safe on every terminal path (idempotent via mem_charged_bytes = 0).
  void release_job_memory(const std::shared_ptr<ActiveJob>& job);
  /// Largest-first eviction until the replica store fits `incoming` more
  /// bytes under both the replica budget and the governor. Requires
  /// replica_mu_. Returns false when even an empty store cannot fit it.
  bool make_replica_room_locked(std::size_t incoming,
                                const std::pair<std::string, std::uint64_t>& keep);
  void drop_replica_entry_locked(const std::pair<std::string, std::uint64_t>& key);
  /// Ask the registered agents which peers can run this request's problem.
  std::vector<proto::ServerCandidate> query_candidates(
      const proto::SolveRequest& request);

  ServerConfig config_;
  /// Held only between construction and reactor start (which adopts it);
  /// endpoint_ keeps the bound address for registration and migration.
  net::TcpListener listener_;
  net::Endpoint endpoint_;
  net::Reactor reactor_;
  dsl::ProblemRegistry registry_;
  double rated_mflops_ = 0.0;
  std::atomic<proto::ServerId> server_id_{proto::kInvalidServerId};
  /// This process lifetime's identity (see proto::RegisterServer).
  std::uint64_t incarnation_ = 0;
  /// Guards agent_links_: normally report-thread-only, but the drain worker
  /// reads the link table for its deregistration fan-out.
  std::mutex links_mu_;
  std::vector<AgentLink> agent_links_;
  Rng reregister_rng_;  // report-thread only

  std::atomic<bool> stopping_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::thread drain_thread_;

  std::mutex active_jobs_mu_;
  std::multimap<std::uint64_t, std::shared_ptr<ActiveJob>> active_jobs_;

  // Admission queue + worker-slot gate. The wait queue owns each admitted
  // job until dispatch_locked() grants it a slot in EDF order or sheds it;
  // running_jobs_ never exceeds the worker count. Only cancel_jobs holds
  // jobs_mu_ and active_jobs_mu_ together (it looks a job up and unlinks it
  // in one step), taking both at once with std::scoped_lock; nothing takes
  // active_jobs_mu_ while holding jobs_mu_, or the reverse.
  mutable std::mutex jobs_mu_;
  int running_jobs_ = 0;
  std::map<std::pair<double, std::uint64_t>, std::shared_ptr<ActiveJob>> wait_queue_;
  std::uint64_t queue_seq_ = 0;
  std::map<std::uint64_t, int> waiting_by_client_;
  /// AIMD state: the fractional limit (effective limit = floor, >= 1)
  /// and the clean-completion count toward the next additive increase.
  double concurrency_limit_f_ = 0.0;
  int aimd_successes_ = 0;
  double aimd_last_decrease_ = 0.0;
  /// CoDel controller state.
  double codel_first_above_ = 0.0;  // 0 = sojourn currently under target
  double codel_drop_next_ = 0.0;
  std::uint32_t codel_drop_count_ = 0;
  bool codel_dropping_ = false;
  /// EWMA of successful service times, feeding the retry_after hints.
  double service_ewma_s_ = 0.0;
  /// Ring of recent sojourns; p95 over it is the queue-pressure piggyback.
  std::array<double, 128> sojourn_ring_{};
  std::size_t sojourn_count_ = 0;

  mutable std::mutex failure_mu_;
  Rng failure_rng_;
  std::atomic<std::int64_t> requests_seen_{0};
  std::atomic<double> background_load_;

  /// Guards the journal and the terminal-record protocol (see above).
  mutable std::mutex journal_mu_;
  Journal journal_;
  /// Jobs rebuilt from the journal, admitted by start() once the reactor is up.
  std::vector<std::shared_ptr<ActiveJob>> recovered_jobs_;
  /// Terminal results kept for re-attaching probes, bounded FIFO by count
  /// and by kMaxStoredResultBytes.
  static constexpr std::size_t kMaxStoredResults = 512;
  mutable std::mutex results_mu_;
  std::map<std::uint64_t, std::shared_ptr<const proto::SolveResult>> results_;
  std::deque<std::uint64_t> results_order_;
  std::size_t results_bytes_ = 0;  // Σ stored_bytes(results_)
  /// Set by crash(): suppress replies and terminal accounting so the
  /// emulated kill looks like a power cut, not a graceful unwind.
  std::atomic<bool> crash_mode_{false};
  std::atomic<std::uint64_t> last_resume_iteration_{0};

  // ---- storage-fault armor ----
  /// Journal fail-stopped; the server runs explicitly non-durable.
  std::atomic<bool> degraded_{false};
  /// Durability state changed since the last workload report (forces a
  /// report past the change threshold so agents learn promptly).
  std::atomic<bool> durable_dirty_{false};
  /// Replica store: checkpoints held for peers' jobs, keyed by
  /// (origin server name, request id), bounded FIFO like the result store.
  struct ReplicaEntry {
    proto::SolveRequest request;
    bool has_request = false;
    double deadline_remaining_s = 0.0;  // budget at the last PUT
    std::int64_t stored_wall_us = 0;    // PUT stamp (deadline decay baseline)
    checkpoint::Snapshot snapshot;      // decompressed state
    /// Bytes this entry accounts for (snapshot state + request payload),
    /// charged to the governor and bounded by mem.replica_budget_bytes.
    std::size_t bytes = 0;
  };
  static constexpr std::size_t kMaxReplicaEntries = 256;
  mutable std::mutex replica_mu_;
  std::map<std::pair<std::string, std::uint64_t>, ReplicaEntry> replica_store_;
  std::deque<std::pair<std::string, std::uint64_t>> replica_order_;
  std::size_t replica_bytes_ = 0;  // under replica_mu_

  // ---- memory governance ----
  mem::MemGovernor governor_;
  mem::SpillStore spill_;
  /// Payloads currently parked on disk (drives the spill_active ternary).
  std::atomic<std::int64_t> spilled_jobs_{0};
  /// Memory-pressure state changed since the last workload report (same
  /// force-a-report contract as durable_dirty_).
  std::atomic<bool> mem_dirty_{false};

  ServerMetrics metrics_;

  std::thread report_thread_;
};

}  // namespace ns::server
