#pragma once
// Structured tracing: RAII spans (wall clock) plus explicit-timestamp
// recording for simulated-time events, exported as chrome://tracing /
// Perfetto JSON ({"traceEvents":[...]}).
//
// Two recording modes share one event store:
//  * Span — RAII, wall-clock. Nesting is implicit: spans on the same
//    thread emit complete ('X') events whose [ts, ts+dur) ranges nest, and
//    chrome://tracing reconstructs the parent/child stacks from that. A
//    per-thread depth counter is kept so snapshots can report nesting
//    without a viewer.
//  * record_complete / record_instant — explicit timestamps (microseconds)
//    and track ids. ClusterExecutor runs in *simulated* time, so its
//    Gantt events pass simulator timestamps and instance ids as tracks,
//    producing a per-node Gantt chart in the trace viewer.
//
// Tracing is OFF by default (spans cost one relaxed load when disabled);
// enable with set_tracing_enabled(true). Events land in per-thread
// buffers (no locks on the hot path; a mutex guards only buffer
// registration) capped at kMaxEventsPerThread — overflow increments the
// celia_obs_trace_dropped_total counter instead of growing without bound.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace celia::obs {

/// One chrome-trace event. phase 'X' = complete (has dur), 'i' = instant.
struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'X';
  std::int64_t ts_us = 0;   // microseconds (wall or simulated)
  std::int64_t dur_us = 0;  // complete events only
  std::uint64_t tid = 0;    // track: real thread or simulated instance id
  int depth = 0;            // span nesting depth at emit time (0 = root)
};

/// Buffer cap per thread; events beyond it are counted as dropped.
inline constexpr std::size_t kMaxEventsPerThread = 1 << 16;

bool tracing_enabled() noexcept;
void set_tracing_enabled(bool enabled) noexcept;

/// Monotonic wall-clock now in microseconds (the Span timebase).
std::int64_t trace_now_us() noexcept;

/// RAII wall-clock span. Emits one complete event (on this thread's track)
/// when destroyed. Cheap no-op while tracing is disabled. Name/category
/// must outlive the span (string literals at every call site).
class Span {
 public:
  Span(std::string_view name, std::string_view category) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string_view name_;
  std::string_view category_;
  std::int64_t start_us_ = 0;
  bool active_ = false;
};

/// Record a complete ('X') event with an explicit timestamp and track —
/// for simulated-time work (executor task runs, BSP steps).
void record_complete(std::string_view name, std::string_view category,
                     std::int64_t ts_us, std::int64_t dur_us,
                     std::uint64_t tid);

/// Record an instant ('i') event — for point occurrences (redispatch,
/// checkpoint, rollback, node crash).
void record_instant(std::string_view name, std::string_view category,
                    std::int64_t ts_us, std::uint64_t tid);

/// All events recorded so far (every thread's buffer), sorted by ts and,
/// on a ts tie, parent span before child (depth ascending).
std::vector<TraceEvent> trace_snapshot();

/// Events dropped because a per-thread buffer was full.
std::uint64_t trace_dropped_count() noexcept;

/// Drop all recorded events (buffers stay registered).
void clear_trace();

/// chrome://tracing JSON: {"traceEvents":[{"name":...,"cat":...,
/// "ph":"X"|"i","ts":...,"dur":...,"pid":1,"tid":...},...]}.
/// Load in chrome://tracing or https://ui.perfetto.dev.
void write_chrome_trace(std::ostream& os);
std::string write_chrome_trace();

}  // namespace celia::obs
