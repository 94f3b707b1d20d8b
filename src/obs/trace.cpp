#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include "obs/metrics.hpp"

namespace celia::obs {

namespace {

std::atomic<bool> g_tracing_enabled{false};

Counter& dropped_counter() {
  static Counter& c = counter(
      "celia_obs_trace_dropped_total",
      "Trace events discarded because a per-thread buffer was full");
  return c;
}

// Per-thread event buffer. Registered once under a mutex; appends are
// lock-free afterwards (only the owning thread writes, snapshots take the
// registry mutex and copy).
struct ThreadBuffer {
  std::uint64_t tid = 0;
  int depth = 0;  // current span nesting depth on this thread
  std::vector<TraceEvent> events;
  std::mutex append_mutex;  // guards events vs. snapshot copies
};

struct BufferRegistry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint64_t next_tid = 1;
};

BufferRegistry& registry() {
  static BufferRegistry* instance = new BufferRegistry();
  return *instance;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    b->tid = reg.next_tid++;
    reg.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

void append_event(ThreadBuffer& buffer, TraceEvent event) {
  std::lock_guard<std::mutex> lock(buffer.append_mutex);
  if (buffer.events.size() >= kMaxEventsPerThread) {
    dropped_counter().add(1);
    return;
  }
  buffer.events.push_back(std::move(event));
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

bool tracing_enabled() noexcept {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

void set_tracing_enabled(bool enabled) noexcept {
  g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

std::int64_t trace_now_us() noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Span::Span(std::string_view name, std::string_view category) noexcept
    : name_(name), category_(category) {
  if (!tracing_enabled()) return;
  active_ = true;
  start_us_ = trace_now_us();
  ++local_buffer().depth;
}

Span::~Span() {
  if (!active_) return;
  ThreadBuffer& buffer = local_buffer();
  const int depth = --buffer.depth;
  TraceEvent event;
  event.name = std::string(name_);
  event.category = std::string(category_);
  event.phase = 'X';
  event.ts_us = start_us_;
  event.dur_us = trace_now_us() - start_us_;
  event.tid = buffer.tid;
  event.depth = depth;
  append_event(buffer, std::move(event));
}

void record_complete(std::string_view name, std::string_view category,
                     std::int64_t ts_us, std::int64_t dur_us,
                     std::uint64_t tid) {
  if (!tracing_enabled()) return;
  TraceEvent event;
  event.name = std::string(name);
  event.category = std::string(category);
  event.phase = 'X';
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.tid = tid;
  append_event(local_buffer(), std::move(event));
}

void record_instant(std::string_view name, std::string_view category,
                    std::int64_t ts_us, std::uint64_t tid) {
  if (!tracing_enabled()) return;
  TraceEvent event;
  event.name = std::string(name);
  event.category = std::string(category);
  event.phase = 'i';
  event.ts_us = ts_us;
  event.tid = tid;
  append_event(local_buffer(), std::move(event));
}

std::vector<TraceEvent> trace_snapshot() {
  auto& reg = registry();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    buffers = reg.buffers;
  }
  std::vector<TraceEvent> out;
  for (auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->append_mutex);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  // A span is appended when it ENDS, so an inner span precedes its outer
  // one in the buffer; when both start in the same microsecond, order the
  // tie parent-first by depth. Equal (ts, depth) keep append order.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.depth < b.depth;
                   });
  return out;
}

std::uint64_t trace_dropped_count() noexcept {
  return dropped_counter().value();
}

void clear_trace() {
  auto& reg = registry();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    buffers = reg.buffers;
  }
  for (auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->append_mutex);
    buffer->events.clear();
  }
}

void write_chrome_trace(std::ostream& os) {
  const auto events = trace_snapshot();
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& event : events) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json_escape(event.name) << "\",\"cat\":\""
       << json_escape(event.category) << "\",\"ph\":\"" << event.phase
       << "\",\"ts\":" << event.ts_us;
    if (event.phase == 'X') os << ",\"dur\":" << event.dur_us;
    if (event.phase == 'i') os << ",\"s\":\"t\"";
    os << ",\"pid\":1,\"tid\":" << event.tid << "}";
  }
  os << "]}";
}

std::string write_chrome_trace() {
  std::ostringstream os;
  write_chrome_trace(os);
  return os.str();
}

}  // namespace celia::obs
