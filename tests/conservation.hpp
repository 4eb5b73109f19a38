// Accounting identities a quiet cluster must satisfy (DESIGN.md §10). The
// suites that push the system hardest — chaos, overload, hedge, memory
// pressure, hostile peers — assert them once their calls have returned:
//
//   server:  requests + jobs_recovered = completed + shed_admission
//              + shed_dequeue + shed_codel + shed_quota + rejected
//              + cancelled_queued + cancelled_running + drain_rejected
//              + mem_shed + exec_errors + store_degraded_shed
//   memory:  governor().accounted() = replica_bytes()
//   client:  calls = client.call_s samples,  failures <= calls,
//            calls - failures <= attempts - retries - hedges <= calls
//
// Only live incarnations conserve: a stop or a crash ends queued and running
// jobs with no terminal state on purpose (replay finishes them), so a test
// that leaves a server stopped or crashed cannot assert the server identity.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "server/server.hpp"
#include "testkit/cluster.hpp"

namespace ns::conservation {

/// The terminal states of one server's requests, summed.
inline std::uint64_t terminal_sum(const server::ComputeServer& s) {
  return s.completed() + s.shed_admission() + s.shed_dequeue() + s.shed_codel() +
         s.shed_quota() + s.rejected() + s.cancelled_queued() + s.cancelled_running() +
         s.drain_rejected() + s.mem_shed() + s.exec_errors() + s.store_degraded_shed();
}

/// Waits up to `quiet_s` for jobs still unwinding (a cancelled hedge loser,
/// an orphaned straggler) to end, then checks the server and memory
/// identities.
inline void expect_server_conserves(const server::ComputeServer& s, double quiet_s = 10.0) {
  const auto taken = [&] { return s.requests() + s.jobs_recovered(); };
  const auto balanced = [&] {
    return taken() == terminal_sum(s) && s.governor().accounted() == s.replica_bytes();
  };
  const Deadline quiet(quiet_s);
  while (!balanced() && !quiet.expired()) sleep_seconds(0.01);
  EXPECT_EQ(taken(), terminal_sum(s))
      << s.name() << ": requests " << s.requests() << " + recovered " << s.jobs_recovered()
      << " vs completed " << s.completed() << ", shed admission/dequeue/codel/quota "
      << s.shed_admission() << "/" << s.shed_dequeue() << "/" << s.shed_codel() << "/"
      << s.shed_quota() << ", rejected " << s.rejected() << ", cancelled queued/running "
      << s.cancelled_queued() << "/" << s.cancelled_running() << ", drain_rejected "
      << s.drain_rejected() << ", mem_shed " << s.mem_shed() << ", exec_errors "
      << s.exec_errors() << ", store_degraded_shed " << s.store_degraded_shed();
  EXPECT_EQ(s.governor().accounted(), s.replica_bytes())
      << s.name() << ": bytes still accounted at quiesce";
}

/// The client counters, read from the process-wide registry.
struct ClientTally {
  std::uint64_t calls = 0, failures = 0, attempts = 0, retries = 0, hedges = 0, call_s = 0;

  static ClientTally now() {
    ClientTally t;
    t.calls = metrics::counter("client.calls_total").value();
    t.failures = metrics::counter("client.failures_total").value();
    t.attempts = metrics::counter("client.attempts_total").value();
    t.retries = metrics::counter("client.retries_total").value();
    t.hedges = metrics::counter("client.hedge_total").value();
    t.call_s = metrics::histogram("client.call_s").count();
    return t;
  }
};

/// The client identity over every call made since `before`; all of them
/// must have returned. Each call makes exactly one first attempt unless it
/// fails before reaching any server; every later attempt is a retry or a
/// hedge.
inline void expect_client_conserves(const ClientTally& before) {
  const ClientTally now = ClientTally::now();
  const std::uint64_t calls = now.calls - before.calls;
  const std::uint64_t failures = now.failures - before.failures;
  const std::uint64_t first_attempts = (now.attempts - before.attempts) -
                                       (now.retries - before.retries) -
                                       (now.hedges - before.hedges);
  EXPECT_EQ(now.call_s - before.call_s, calls) << "every call observes client.call_s once";
  EXPECT_LE(failures, calls);
  EXPECT_LE(first_attempts, calls) << "a call made two first attempts";
  EXPECT_GE(first_attempts, calls - failures) << "a successful call made no first attempt";
}

/// The server and memory identities for every server of `cluster`, all of
/// them live, and the client identity since `before`.
inline void expect_conserved(testkit::TestCluster& cluster, const ClientTally& before) {
  for (std::size_t i = 0; i < cluster.server_count(); ++i) {
    expect_server_conserves(cluster.server(i));
  }
  expect_client_conserves(before);
}

}  // namespace ns::conservation
