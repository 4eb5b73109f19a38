// Shared plumbing for the experiment harnesses (bench_* binaries that
// regenerate the paper-shaped tables and figures; see EXPERIMENTS.md).
//
// Each harness prints a self-describing header, the parameter values, and
// the measured rows in a fixed-width table so runs can be diffed and pasted
// into EXPERIMENTS.md directly.
#pragma once

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "linalg/blas.hpp"
#include "testkit/cluster.hpp"

namespace ns::bench {

/// Common harness flags, shared by the bench_* binaries that accept them:
///   --quick         shrink the workload so the run fits a CI smoke budget
///   --json <path>   after the run, dump the process metrics registry as
///                   JSON to <path> (the machine-readable BENCH_*.json
///                   baseline is then harness-produced, not hand-rolled)
struct Options {
  bool quick = false;
  std::string json_path;

  static Options parse(int argc, char** argv) {
    Options opts;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--quick") {
        opts.quick = true;
      } else if (arg == "--json" && i + 1 < argc) {
        opts.json_path = argv[++i];
      } else if (arg.rfind("--json=", 0) == 0) {
        opts.json_path = arg.substr(7);
      } else {
        std::fprintf(stderr, "unknown flag %s (known: --quick, --json <path>)\n", arg.c_str());
        std::exit(2);
      }
    }
    return opts;
  }
};

/// The shape of the host a run was taken on: online CPUs, the CPUs this
/// process may run on (fewer when pinned, e.g. by taskset), and the ISA of
/// the GEMM micro-kernel (linalg::gemm_isa()).
/// scripts/check_bench_regression.py refuses to compare runs of different
/// shapes on any key the baseline's host note names.
struct HostShape {
  long nproc = 0;
  int affinity_cpus = 0;
  const char* gemm_isa = "";

  static HostShape current() {
    HostShape h;
    h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
    cpu_set_t set;
    CPU_ZERO(&set);
    h.affinity_cpus = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
    h.gemm_isa = linalg::gemm_isa();
    return h;
  }
};

/// Write `{"experiment": ..., "quick": ..., "host": {...}, "metrics": <registry
/// dump>}` to `path`. The dump carries everything the run produced: the
/// bench.* result gauges plus the client/agent/server counters and span
/// histograms that accumulated in this process while the in-process clusters
/// ran.
inline bool write_metrics_json(const std::string& path, const std::string& experiment,
                               bool quick) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::string dump = metrics::Registry::instance().snapshot().to_json();
  const HostShape host = HostShape::current();
  std::fprintf(out,
               "{\"experiment\": \"%s\", \"quick\": %s, \"host\": {\"nproc\": %ld, "
               "\"affinity_cpus\": %d, \"gemm_isa\": \"%s\"}, \"metrics\": %s}\n",
               experiment.c_str(), quick ? "true" : "false", host.nproc, host.affinity_cpus,
               host.gemm_isa, dump.c_str());
  std::fclose(out);
  return true;
}

inline void banner(const char* experiment_id, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s: %s\n", experiment_id, title);
  std::printf("==============================================================\n");
}

inline void row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

/// Basic statistics over a sample set.
struct Summary {
  double mean = 0, min = 0, max = 0, stddev = 0, p95 = 0;
  std::size_t count = 0;
};

inline Summary summarize(const std::vector<double>& xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.min = xs[0];
  s.max = xs[0];
  double sum = 0;
  for (const double x : xs) {
    sum += x;
    if (x < s.min) s.min = x;
    if (x > s.max) s.max = x;
  }
  s.mean = sum / static_cast<double>(xs.size());
  double var = 0;
  for (const double x : xs) var += (x - s.mean) * (x - s.mean);
  s.stddev = xs.size() > 1 ? std::sqrt(var / static_cast<double>(xs.size() - 1)) : 0.0;
  // Nearest-rank p95 over a sorted copy.
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t rank =
      std::min(sorted.size() - 1,
               static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(sorted.size()))) -
                   (sorted.empty() ? 0 : 1));
  s.p95 = sorted[rank];
  return s;
}

/// Run `count` jobs through `submit` with at most `concurrency` in flight,
/// using one worker thread per slot; returns per-job wall times (seconds)
/// in completion order and the overall makespan.
struct FarmResult {
  std::vector<double> job_seconds;
  double makespan = 0;
  int failures = 0;
};

template <typename SubmitFn>
FarmResult run_farm(int count, int concurrency, SubmitFn&& submit) {
  FarmResult result;
  std::mutex mu;
  std::atomic<int> next{0};
  const Stopwatch total;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(concurrency));
  for (int w = 0; w < concurrency; ++w) {
    workers.emplace_back([&] {
      while (true) {
        const int job = next.fetch_add(1);
        if (job >= count) return;
        const Stopwatch watch;
        const bool ok = submit(job);
        const double elapsed = watch.elapsed();
        std::lock_guard<std::mutex> lock(mu);
        if (ok) {
          result.job_seconds.push_back(elapsed);
        } else {
          ++result.failures;
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  result.makespan = total.elapsed();
  return result;
}

}  // namespace ns::bench
