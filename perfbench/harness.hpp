#pragma once
// Measurement helpers of the end-to-end benchmark: wall clock, tail
// percentiles, the bit-exact answer check, an in-memory span recorder and
// the named-metric sink. Everything here is independent of the workloads
// so the self-test (perfbench --self-test) can exercise it in isolation.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/enumerate.hpp"

namespace perfbench {

/// Seconds on the steady clock since the first call (made at start-up).
inline double now_seconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

/// Block the calling thread until now_seconds() >= t.
inline void sleep_until_seconds(double t) {
  const double wait = t - now_seconds();
  if (wait > 0)
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

// --- percentiles -------------------------------------------------------

/// One order statistic: the value at 1-based nearest rank `rank` of
/// `samples` sorted values, with `beyond` = samples - rank values above it.
struct Percentile {
  double q = 0.0;  // rank / samples: the percentile actually reported
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t rank = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile `q` of `values` (sorted in place). When fewer
/// than `min_beyond` samples would lie beyond rank ceil(q * n), the rank
/// is lowered until exactly `min_beyond` do: the result is the highest
/// percentile at or below `q` that still has `min_beyond` samples beyond
/// it. With n <= min_beyond no such rank exists and the minimum is
/// returned. An empty input gives all zeros.
inline Percentile percentile(std::vector<double>& values, double q,
                             std::size_t min_beyond = 10) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) rank = n > min_beyond ? n - min_beyond : 1;
  p.rank = rank;
  p.beyond = n - rank;
  p.q = static_cast<double>(rank) / static_cast<double>(n);
  p.value = values[rank - 1];
  return p;
}

/// Median (nearest rank 0.5) of a copy of `values`; 0 when empty.
inline double median(std::vector<double> values) {
  return percentile(values, 0.5, 0).value;
}

// --- answer check ------------------------------------------------------

enum class Verdict {
  kMatch,        // identical bit for bit
  kTieMismatch,  // same numbers, a tied point names another configuration
  kMismatch,     // a number differs: the answer is wrong
};

inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Compare a served answer with the reference sweep's: feasibility,
/// feasible count, the min-cost and min-time points and the Pareto
/// frontier's costs and times must agree bit for bit. A differing
/// config_index behind identical numbers is a tie broken differently
/// (reported apart: it is the sweep's known ordering defect, not a wrong
/// answer).
inline Verdict compare_answers(const celia::core::SweepResult& served,
                               const celia::core::SweepResult& reference) {
  using celia::core::CostTimePoint;
  if (served.any_feasible != reference.any_feasible ||
      served.feasible != reference.feasible ||
      served.pareto.size() != reference.pareto.size())
    return Verdict::kMismatch;
  bool tie = false;
  const auto point = [&tie](const CostTimePoint& a, const CostTimePoint& b) {
    if (!same_bits(a.cost, b.cost) || !same_bits(a.seconds, b.seconds))
      return false;
    tie = tie || a.config_index != b.config_index;
    return true;
  };
  if (served.any_feasible && (!point(served.min_cost, reference.min_cost) ||
                              !point(served.min_time, reference.min_time)))
    return Verdict::kMismatch;
  for (std::size_t i = 0; i < served.pareto.size(); ++i)
    if (!point(served.pareto[i], reference.pareto[i]))
      return Verdict::kMismatch;
  return tie ? Verdict::kTieMismatch : Verdict::kMatch;
}

/// Running tally of checked answers.
struct CheckTally {
  std::uint64_t answers = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t tie_mismatches = 0;

  void add(Verdict verdict) {
    ++answers;
    if (verdict == Verdict::kMismatch) ++mismatches;
    if (verdict == Verdict::kTieMismatch) ++tie_mismatches;
  }
};

// --- spans -------------------------------------------------------------

/// One traced call: [start, end] in now_seconds(), the span that caused
/// it (0 = root) and the request it belongs to.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

/// In-memory span store, written once at exit. Disabled recorders keep
/// nothing, so the untraced run pays one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Record a finished span; returns its id (0 when disabled).
  std::uint64_t add(std::string name, double start, double end,
                    std::uint64_t parent = 0, std::uint64_t request = 0) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back({id, parent, request, std::move(name), start, end});
    return id;
  }

  /// Reserve an id for a parent whose end is not known yet; finish() it
  /// later. Children may name the id in between.
  std::uint64_t open(std::string name, double start, std::uint64_t parent = 0,
                     std::uint64_t request = 0) {
    return add(std::move(name), start, start, parent, request);
  }

  void finish(std::uint64_t id, double end) {
    if (!enabled_ || id == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end = end;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  /// Self time of each span name: every span's duration minus the part
  /// of its interval covered by the union of its children, summed per
  /// name, with the number of spans of that name.
  struct SelfTime {
    double seconds = 0.0;
    std::size_t spans = 0;
  };
  std::map<std::string, SelfTime> self_times() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].parent != 0) children[spans_[i].parent - 1].push_back(i);
    std::map<std::string, SelfTime> self;
    std::vector<std::pair<double, double>> covered;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      covered.clear();
      for (const std::size_t c : children[i])
        covered.emplace_back(std::max(spans_[c].start, span.start),
                             std::min(spans_[c].end, span.end));
      std::sort(covered.begin(), covered.end());
      double union_len = 0.0, reach = span.start;
      for (const auto& [lo, hi] : covered) {
        const double from = std::max(lo, reach);
        if (hi > from) {
          union_len += hi - from;
          reach = hi;
        }
      }
      SelfTime& entry = self[span.name];
      entry.seconds += std::max(0.0, (span.end - span.start) - union_len);
      ++entry.spans;
    }
    return self;
  }

  /// Chrome-trace JSON ("X" events, microseconds); false if unwritable.
  bool write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[320];
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                    "\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                    i == 0 ? "" : ",", s.name.c_str(),
                    static_cast<unsigned long long>(s.request % 64),
                    s.start * 1e6, (s.end - s.start) * 1e6,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.request));
      out << line;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// --- metric sink -------------------------------------------------------

/// Named metrics in insertion order, each with its unit.
class MetricSink {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& entry : entries_)
      if (entry.name == name) {
        entry.value = value;
        entry.unit = unit;
        return;
      }
    entries_.push_back({name, value, unit});
  }

  /// True when no metric is NaN or infinite (JSON cannot carry those).
  bool all_finite() const {
    for (const auto& e : entries_)
      if (!std::isfinite(e.value)) return false;
    return true;
  }

  /// One "metric <name> <value> <unit>" line per metric.
  void print(std::FILE* out) const {
    for (const auto& e : entries_)
      std::fprintf(out, "metric %-34s %.9g %s\n", e.name.c_str(), e.value,
                   e.unit.c_str());
  }

  /// {"name": {"value": v, "unit": u}, ...} on one line; a non-finite
  /// value is written as 0 (all_finite() reports it).
  std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    std::isfinite(entries_[i].value) ? entries_[i].value : 0.0,
                    entries_[i].unit.c_str());
      s += buf;
    }
    return s + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
