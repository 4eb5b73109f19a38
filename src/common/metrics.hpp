// Process-wide metrics registry: counters, gauges, and fixed-bucket
// log-scale histograms.
//
// Design goals, in order:
//   1. Lock-cheap hot path. Every instrument is a bundle of atomics;
//      inc()/set()/observe() never take a lock. The registry mutex guards
//      only name -> instrument lookup (first call per name registers it;
//      call sites that care cache the returned reference, which is stable
//      for the life of the process).
//   2. Stable dump formats. snapshot() captures every instrument into plain
//      structs that render to a fixed text format (one line per instrument)
//      and a deterministic JSON document (names sorted, %.17g doubles) so
//      dumps diff cleanly across runs and round-trip through the wire
//      protocol (proto::MetricsDump) byte-for-byte.
//   3. Useful percentiles without per-sample storage. Histograms bucket on a
//      fixed log scale (factor kBucketGrowth per bucket), so p50/p95/p99
//      extraction is a cumulative walk and the reported quantile is an upper
//      bound within one bucket (a factor of kBucketGrowth) of the true
//      sample quantile.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ns::metrics {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A counter one owner (one server of several in a process) keeps for itself:
/// inc() also feeds the registry counter it was built from, value() reads the
/// owner's share. The registry total keeps counting across restarts.
class ScopedCounter {
 public:
  explicit ScopedCounter(Counter& total) noexcept : total_(total) {}
  void inc(std::uint64_t n = 1) noexcept {
    own_.inc(n);
    total_.inc(n);
  }
  std::uint64_t value() const noexcept { return own_.value(); }

 private:
  Counter own_;
  Counter& total_;
};

/// Last-write-wins instantaneous value (queue depth, rating factor, ...).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept;
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-scale histogram bucket layout, shared by live histograms and
/// snapshots. Bucket i holds samples in (upper_bound(i-1), upper_bound(i)];
/// the last bucket is unbounded above, and everything at or below
/// kBucketMin lands in bucket 0.
inline constexpr std::size_t kNumBuckets = 60;
inline constexpr double kBucketMin = 1e-6;     // seconds; fits span timings
inline constexpr double kBucketGrowth = 1.5;   // relative quantile error bound

/// Upper bound of bucket `i` (a large sentinel for the last bucket).
double bucket_upper_bound(std::size_t i) noexcept;
/// Bucket index a sample falls into.
std::size_t bucket_index(double v) noexcept;

/// Fixed-bucket log-scale histogram with exact count/sum and min/max.
class Histogram {
 public:
  void observe(double v) noexcept;
  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  void reset() noexcept;

  /// Quantile in [0, 1]: the upper bound of the bucket holding the q-th
  /// sample (0 when empty). At most a factor kBucketGrowth above the true
  /// sample quantile.
  double percentile(double q) const noexcept;

 private:
  friend class Registry;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<std::uint64_t> buckets_[kNumBuckets]{};
};

/// Point-in-time capture of the whole registry. Plain data: safe to ship
/// over the wire (proto::MetricsDump) and render anywhere.
struct Snapshot {
  enum class Kind : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

  struct Entry {
    Kind kind = Kind::kCounter;
    std::string name;
    std::uint64_t count = 0;              // counter value / histogram count
    double value = 0.0;                   // gauge value / histogram sum
    double min = 0.0, max = 0.0;          // histogram only
    std::vector<std::uint64_t> buckets;   // histogram only (kNumBuckets)

    /// Histogram quantile from the captured buckets (same contract as
    /// Histogram::percentile); 0 for non-histograms.
    double percentile(double q) const noexcept;
  };

  std::vector<Entry> entries;  // sorted by name within each kind, then kind

  /// One line per instrument:
  ///   counter <name> <value>
  ///   gauge <name> <value>
  ///   hist <name> count=<n> sum=<s> min=<m> max=<M> p50=<..> p95=<..> p99=<..>
  std::string to_text() const;

  /// Deterministic JSON: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, min, max, p50, p95, p99, buckets}}}.
  /// Identical snapshots render to identical strings (sorted keys, %.17g).
  std::string to_json() const;

  const Entry* find(const std::string& name) const noexcept;
};

/// Name -> instrument directory. One process-wide instance; separate
/// instances exist only for isolation in unit tests.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Capture every instrument whose name starts with `prefix` ("" = all).
  Snapshot snapshot(const std::string& prefix = {}) const;

  /// Zero every instrument (registrations survive; references stay valid).
  /// For benches and tests that want a clean slate per scenario.
  void reset_all();

  /// By-name lookups served so far; hot paths bind theirs once instead.
  std::uint64_t lookups() const noexcept { return lookups_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> lookups_{0};
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Process-wide instrument lookup (registers on first use).
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

}  // namespace ns::metrics
