#include "common/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ns::metrics {

namespace {

/// Render a double exactly enough to round-trip (and deterministically, so
/// identical snapshots produce identical dumps).
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur && !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Shared quantile walk over a bucket array.
double percentile_of(const std::uint64_t* buckets, std::uint64_t total, double q) noexcept {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank && cumulative > 0) return bucket_upper_bound(i);
  }
  return bucket_upper_bound(kNumBuckets - 1);
}

}  // namespace

double bucket_upper_bound(std::size_t i) noexcept {
  if (i + 1 >= kNumBuckets) {
    // The last bucket is unbounded; report its lower edge's next step so the
    // value is still finite and plottable.
    return kBucketMin * std::pow(kBucketGrowth, static_cast<double>(kNumBuckets - 1));
  }
  return kBucketMin * std::pow(kBucketGrowth, static_cast<double>(i));
}

std::size_t bucket_index(double v) noexcept {
  if (!(v > kBucketMin)) return 0;  // also catches NaN and negatives
  const double steps = std::log(v / kBucketMin) / std::log(kBucketGrowth);
  const auto i = static_cast<std::size_t>(std::ceil(steps - 1e-9));
  return std::min(i, kNumBuckets - 1);
}

void Gauge::add(double delta) noexcept { atomic_add(value_, delta); }

void Histogram::observe(double v) noexcept {
  if (std::isnan(v)) return;
  const std::uint64_t n = count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  if (n == 0) {
    // First sample seeds min/max; racing observers fix it up via CAS below.
    double zero = 0.0;
    min_.compare_exchange_strong(zero, v, std::memory_order_relaxed);
    zero = 0.0;
    max_.compare_exchange_strong(zero, v, std::memory_order_relaxed);
  }
  atomic_min(min_, v);
  atomic_max(max_, v);
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

double Histogram::percentile(double q) const noexcept {
  std::uint64_t counts[kNumBuckets];
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  return percentile_of(counts, total, q);
}

double Snapshot::Entry::percentile(double q) const noexcept {
  if (kind != Kind::kHistogram || buckets.size() != kNumBuckets) return 0.0;
  return percentile_of(buckets.data(), count, q);
}

const Snapshot::Entry* Snapshot::find(const std::string& name) const noexcept {
  for (const auto& entry : entries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

std::string Snapshot::to_text() const {
  std::string out;
  for (const auto& e : entries) {
    switch (e.kind) {
      case Kind::kCounter:
        out += "counter " + e.name + " " + std::to_string(e.count) + "\n";
        break;
      case Kind::kGauge:
        out += "gauge " + e.name + " " + fmt_double(e.value) + "\n";
        break;
      case Kind::kHistogram:
        out += "hist " + e.name + " count=" + std::to_string(e.count) +
               " sum=" + fmt_double(e.value) + " min=" + fmt_double(e.min) +
               " max=" + fmt_double(e.max) + " p50=" + fmt_double(e.percentile(0.50)) +
               " p95=" + fmt_double(e.percentile(0.95)) +
               " p99=" + fmt_double(e.percentile(0.99)) + "\n";
        break;
    }
  }
  return out;
}

std::string Snapshot::to_json() const {
  // Entries arrive sorted by name within each kind (snapshot() iterates
  // std::map), so emitting kind-by-kind keeps the document deterministic.
  std::string counters, gauges, histograms;
  for (const auto& e : entries) {
    switch (e.kind) {
      case Kind::kCounter:
        if (!counters.empty()) counters += ", ";
        counters += "\"" + e.name + "\": " + std::to_string(e.count);
        break;
      case Kind::kGauge:
        if (!gauges.empty()) gauges += ", ";
        gauges += "\"" + e.name + "\": " + fmt_double(e.value);
        break;
      case Kind::kHistogram: {
        if (!histograms.empty()) histograms += ", ";
        std::string buckets;
        for (const auto b : e.buckets) {
          if (!buckets.empty()) buckets += ", ";
          buckets += std::to_string(b);
        }
        histograms += "\"" + e.name + "\": {\"count\": " + std::to_string(e.count) +
                      ", \"sum\": " + fmt_double(e.value) + ", \"min\": " + fmt_double(e.min) +
                      ", \"max\": " + fmt_double(e.max) +
                      ", \"p50\": " + fmt_double(e.percentile(0.50)) +
                      ", \"p95\": " + fmt_double(e.percentile(0.95)) +
                      ", \"p99\": " + fmt_double(e.percentile(0.99)) + ", \"buckets\": [" +
                      buckets + "]}";
        break;
      }
    }
  }
  return "{\"counters\": {" + counters + "}, \"gauges\": {" + gauges +
         "}, \"histograms\": {" + histograms + "}}";
}

Registry& Registry::instance() {
  // Deliberately leaked: the process-global connection pool keeps mux reader
  // threads alive past the end of main (the pool itself is leaked for the
  // same reason), and they record counters on their way out. A static with a
  // destructor would be torn down under them; the OS reclaims at exit.
  static Registry* registry = new Registry();
  return *registry;
}

Counter& Registry::counter(const std::string& name) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

Snapshot Registry::snapshot(const std::string& prefix) const {
  const auto matches = [&prefix](const std::string& name) {
    return prefix.empty() || name.rfind(prefix, 0) == 0;
  };
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    if (!matches(name)) continue;
    Snapshot::Entry e;
    e.kind = Snapshot::Kind::kCounter;
    e.name = name;
    e.count = c->value();
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [name, g] : gauges_) {
    if (!matches(name)) continue;
    Snapshot::Entry e;
    e.kind = Snapshot::Kind::kGauge;
    e.name = name;
    e.value = g->value();
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [name, h] : histograms_) {
    if (!matches(name)) continue;
    Snapshot::Entry e;
    e.kind = Snapshot::Kind::kHistogram;
    e.name = name;
    e.count = h->count_.load(std::memory_order_relaxed);
    e.value = h->sum_.load(std::memory_order_relaxed);
    e.min = h->min_.load(std::memory_order_relaxed);
    e.max = h->max_.load(std::memory_order_relaxed);
    e.buckets.resize(kNumBuckets);
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      e.buckets[i] = h->buckets_[i].load(std::memory_order_relaxed);
    }
    snap.entries.push_back(std::move(e));
  }
  return snap;
}

void Registry::reset_all() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Counter& counter(const std::string& name) { return Registry::instance().counter(name); }
Gauge& gauge(const std::string& name) { return Registry::instance().gauge(name); }
Histogram& histogram(const std::string& name) { return Registry::instance().histogram(name); }

}  // namespace ns::metrics
