// Request tracing: a trace_id minted per client call, carried hop-to-hop in
// the wire protocol (proto::Query / SolveRequest), with per-hop span timings
// recorded at each process.
//
// A span is (name, start offset, duration) relative to the recording
// process's view of the request. record_span() does two things:
//   - emits one structured log line on the "trace" tag at debug level:
//       trace=<16-hex> span=<name> start_ms=<..> dur_ms=<..>
//     so a grep over interleaved multi-process logs reconstructs any
//     request's path;
//   - folds the duration into the registry histogram "span.<name>_s" the
//     caller bound once, so per-hop latency distributions (p50/p95/p99) are
//     scrapeable from any live process via METRICS_QUERY.
// Each span is recorded once, by the process that measured it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.hpp"

namespace ns::trace {

using TraceId = std::uint64_t;
inline constexpr TraceId kNoTrace = 0;

/// Mint a process-unique, run-unique trace id (never kNoTrace).
TraceId new_trace_id() noexcept;

/// Canonical 16-hex-digit rendering used in log lines.
std::string trace_id_hex(TraceId id);

/// One hop's timing within a request, offsets in seconds relative to the
/// request's local start (client call entry, or server receipt).
struct Span {
  std::string name;
  double start_s = 0.0;
  double duration_s = 0.0;
};

/// Log the span (debug level, tag "trace") and aggregate its duration into
/// `hist`, the caller's bound "span.<name>_s" histogram.
void record_span(metrics::Histogram& hist, TraceId id, std::string_view name, double start_s,
                 double duration_s);

}  // namespace ns::trace
