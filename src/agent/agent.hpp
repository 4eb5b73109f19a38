// The NetSolve agent: resource directory + scheduler daemon.
//
// Servers register their problem catalogues and stream workload reports;
// clients ask "who should run problem p with this much data?" and receive a
// ranked candidate list. The agent never touches argument data — exactly the
// original design, where the agent is a lightweight broker and all heavy
// traffic flows client <-> server directly.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "agent/policy.hpp"
#include "agent/registry.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "proto/messages.hpp"

namespace ns::agent {

struct AgentConfig {
  net::Endpoint listen{"127.0.0.1", 0};  // port 0 = ephemeral
  std::string policy = "mct";
  std::uint64_t policy_seed = 0xc0ffee;
  RegistryConfig registry;
  double io_timeout_s = 10.0;
  /// Transport hostile-peer armor. The agent is a metadata-only endpoint:
  /// frames cap at 1 MiB and buffer budgets are tight (see
  /// GuardConfig::agent_defaults) — a giant-frame bomb aimed at the
  /// directory costs a header, not an allocation.
  net::GuardConfig guard = net::GuardConfig::agent_defaults();
  /// Active liveness probing: ping every alive server this often and record
  /// a failure on no Pong. 0 disables (liveness then comes only from
  /// client failure reports and the report timeout).
  double ping_period_s = 0.0;
  /// Count not-yet-reported assignments toward each server's load in the
  /// predictor (ServerRecord::pending). Disabling this is the E9 ablation:
  /// concurrent request bursts then dog-pile the server that looked idle in
  /// the last workload report.
  bool count_pending = true;
  /// Federation: peer agents to exchange registry snapshots with. Servers
  /// registered at any agent in the mesh become visible to clients of every
  /// agent; freshness is resolved per entry (see ServerRegistry::apply_sync).
  std::vector<net::Endpoint> peers;
  /// Snapshot exchange period; 0 disables federation even if peers are set.
  double sync_period_s = 0.0;
  /// Anti-entropy bootstrap: pull a full registry snapshot from each peer at
  /// startup so a restarted agent serves a warm directory before the first
  /// server re-registration arrives. Requires sync_period_s > 0.
  bool bootstrap_from_peers = true;
};

class Agent {
 public:
  /// Bind, start the serving reactor, and return a running agent.
  static Result<std::unique_ptr<Agent>> start(AgentConfig config);

  ~Agent();
  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  /// Where clients and servers reach this agent.
  net::Endpoint endpoint() const { return endpoint_; }

  /// Close the listener and wait for in-flight connections to drain.
  void stop();

  /// Direct registry access for tests and experiment harnesses.
  ServerRegistry& registry() noexcept { return registry_; }

  /// Non-const: computing alive_servers expires stale registrations.
  proto::AgentStats stats();

  /// Add a federation peer at runtime (testkit meshes learn peer ports only
  /// after every agent has bound its ephemeral listener). Duplicates are
  /// ignored. The sync loop picks the peer up on its next period.
  void add_peer(const net::Endpoint& peer);

 private:
  Agent(AgentConfig config, net::TcpListener listener,
        std::unique_ptr<SelectionPolicy> policy);

  /// Health of one federation peer, updated by every snapshot exchange.
  struct PeerState {
    net::Endpoint endpoint;
    bool alive = false;
    double last_ok_time = -1.0;  // now_seconds() of last success; < 0 = never
  };

  /// Reactor dispatch: one complete frame from one connection, on a pool
  /// thread. Returns false when the connection should be dropped.
  bool handle_message(const net::ReactorConnPtr& conn, net::Message&& msg);
  void ping_loop();
  void sync_loop();
  /// Synchronous startup pull of peer registries (anti-entropy bootstrap).
  void bootstrap_from_peers();
  std::vector<net::Endpoint> peer_endpoints();
  void note_peer_result(const net::Endpoint& peer, bool ok);
  /// Re-publish per-server directory state (breaker, rating factor,
  /// workload, liveness) as registry gauges; called at metrics-scrape time.
  void refresh_server_gauges();

  AgentConfig config_;
  /// Held only between construction and reactor start (which adopts it).
  net::TcpListener listener_;
  net::Endpoint endpoint_;
  net::Reactor reactor_;
  ServerRegistry registry_;

  std::mutex policy_mu_;
  std::unique_ptr<SelectionPolicy> policy_;

  std::mutex peers_mu_;
  std::vector<PeerState> peers_;

  std::atomic<bool> stopping_{false};
  std::thread ping_thread_;
  std::thread sync_thread_;

  // This agent's counts (AgentStats), each also feeding its agent.* total.
  metrics::ScopedCounter queries_{metrics::counter("agent.queries_total")};
  metrics::ScopedCounter registrations_{metrics::counter("agent.registrations_total")};
  metrics::ScopedCounter workload_reports_{metrics::counter("agent.workload_reports_total")};
  metrics::ScopedCounter failure_reports_{metrics::counter("agent.failure_reports_total")};
};

}  // namespace ns::agent
