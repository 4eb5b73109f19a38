#include "common/trace.hpp"

#include <atomic>
#include <cstdio>

#include "common/clock.hpp"
#include "common/log.hpp"

namespace ns::trace {

TraceId new_trace_id() noexcept {
  // Wall-clock seed decorrelates ids across processes (every process in a
  // multi-process deployment mints from its own stream); the counter and a
  // splitmix64-style mix keep ids unique and well-spread within one.
  static std::atomic<std::uint64_t> next{static_cast<std::uint64_t>(wall_micros())};
  std::uint64_t x = next.fetch_add(0x9e3779b97f4a7c15ull, std::memory_order_relaxed);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x == kNoTrace ? 1 : x;
}

std::string trace_id_hex(TraceId id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(id));
  return buf;
}

void record_span(metrics::Histogram& hist, TraceId id, std::string_view name, double start_s,
                 double duration_s) {
  NS_DEBUG("trace") << "trace=" << trace_id_hex(id) << " span=" << name
                    << " start_ms=" << start_s * 1e3 << " dur_ms=" << duration_s * 1e3;
  hist.observe(duration_s);
}

}  // namespace ns::trace
