// End-to-end benchmark of the CELIA planner.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// Workloads (see perfbench/README.md for why each exists):
//   plan_index_hot   open + closed loop of index-eligible queries against a
//                    warm FrontierIndex over Table III (10,077,695 configs)
//   plan_sweep_risk  open + closed loop of risk-aware queries (every
//                    non-coalesced request is a full sweep, 262,143 configs)
//   paper_pipeline   the offline paper job: Celia::build, select, the
//                    fig5/fig6 deadline ladders and the Table IV validation
//
// Every module is measured from outside, by timing calls into its public
// functions. The untraced run (--trace 0) gives the end-to-end metrics;
// --trace 1 replays the same seeded stream with one span per call, adds
// direct per-layer probes and reports each layer's self time. The last
// stdout line is "PERFBENCH_RESULT {json}" with every measured metric;
// perfbench/run.py turns it into the benchmark's result line. The exit
// code is nonzero when an answer fails the reference check or a counter
// invariant breaks.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "apps/registry.hpp"
#include "cloud/catalog.hpp"
#include "cloud/provider.hpp"
#include "core/capacity.hpp"
#include "core/celia.hpp"
#include "core/enumerate.hpp"
#include "core/frontier_index.hpp"
#include "core/planner_engine.hpp"
#include "core/query.hpp"
#include "core/simd.hpp"
#include "core/validation.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/planner_service.hpp"

namespace perfbench {
namespace {

using namespace celia;
using core::Constraints;
using core::Query;
using core::SweepOptions;
using core::SweepResult;

// --- run options ---------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  // shrunken catalogs, for the benchmark's own tests
};

// Result files and traces, relative to the checkout root.
constexpr const char* kOutDir = ".bench_out";

/// Fixed load shape of one serving workload: absolute offered rates and
/// in-flight counts, never calibrated at run time.
struct ServeShape {
  double open_rate_qps;     // open-loop arrival rate
  double open_share;        // share of --seconds spent in the open loop
  std::size_t inflight;     // closed-loop requests in flight
  double latency_limit_ms;  // goodput limit
  std::size_t check_queries;  // distinct queries re-checked by a sweep
};

// The serving workloads characterize capacity on one fixed simulated
// provider day, so a seed changes the request stream, not the platform.
constexpr std::uint64_t kServingProviderSeed = 2017;
constexpr std::size_t kServiceWorkers = 2;
constexpr std::size_t kServePoolThreads = 2;   // 2 workers + 2 = 4 threads
// Two planning threads, not four: a statically split sweep waits for its
// slowest thread, and on a shared 4-vCPU machine a 3- or 4-thread pool
// almost always has one on a vCPU a neighbour is slowing (measured on a
// 4-vCPU Xeon VM: 10M min-cost sweeps 33-37 ms with 2 threads, 45-52 ms
// with 3).
constexpr std::size_t kPipelinePoolThreads = 2;
// Set-up is repeated at least kMinSetups times and until kSetupBudget
// seconds are spent (at most kMaxSetups); setup_s is the median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 60;
constexpr double kSetupBudget = 1.0;
// Distinct queries whose answers are checked against a reference sweep:
// the first served in plan_index_hot's window, and the seeded queries
// re-planned after the catalog-edit probe's price moves and its restore.
constexpr std::size_t kServeCheckQueries = 32;
constexpr std::size_t kEditCheckQueries = 32;
// Untimed load before every window: on a shared 4-vCPU Xeon VM the first
// ~2 s of load in a process ran up to 2x slow, which would otherwise land
// in the timed window.
constexpr double kWarmupSeconds = 2.0;

// --- shared state of one run -----------------------------------------------

struct Run {
  Options opt;
  MetricSink metrics;
  SpanRecorder spans;
  CheckTally check;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  // broken invariants
  std::vector<double> setup_seconds;

  explicit Run(Options o) : opt(std::move(o)), spans(opt.trace) {}

  void violation(std::string what) {
    std::fprintf(stderr, "INVARIANT: %s\n", what.c_str());
    violations.push_back(std::move(what));
  }
};

/// Count one checked answer; a mismatch is a failed operation.
void record_verdict(Run& run, Verdict verdict, const char* what) {
  run.check.add(verdict);
  if (verdict == Verdict::kMismatch) {
    ++run.failed;
    std::fprintf(stderr, "MISMATCH: %s differs from the reference sweep\n",
                 what);
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        for (char& c : model)
          if (c == '"' || c == '\\') c = ' ';
        return model;
      }
    }
  return "unknown";
}

std::string machine_json() {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"cpu_model\": \"%s\", \"simd\": \"%s\"}",
                std::thread::hardware_concurrency(), cpu_model().c_str(),
                std::string(core::simd::level_name(core::simd::active_level()))
                    .c_str());
  return buf;
}

// --- the program's own counters ------------------------------------------

/// Snapshot of the engine/serve counters; windows report differences.
struct Counts {
  std::uint64_t queries = 0, hits = 0, builds = 0, sweeps = 0, degraded = 0;
  std::uint64_t replaces = 0, rescale = 0, axis = 0, rebuild = 0;
  std::uint64_t coalesced = 0;

  static Counts read() {
    const auto v = [](const char* name) { return obs::counter(name).value(); };
    Counts c;
    c.queries = v("celia_planner_engine_queries_total");
    c.hits = v("celia_planner_engine_index_hits_total");
    c.builds = v("celia_planner_engine_index_builds_total");
    c.sweeps = v("celia_planner_engine_sweeps_total");
    c.degraded = v("celia_planner_engine_degraded_total");
    c.replaces = v("celia_planner_engine_catalog_replaces_total");
    c.rescale = v("celia_planner_engine_delta_rescale_total");
    c.axis = v("celia_planner_engine_delta_axis_total");
    c.rebuild = v("celia_planner_engine_delta_rebuild_total");
    c.coalesced = v("celia_serve_coalesced_total");
    return c;
  }

  Counts operator-(const Counts& o) const {
    Counts d;
    d.queries = queries - o.queries;
    d.hits = hits - o.hits;
    d.builds = builds - o.builds;
    d.sweeps = sweeps - o.sweeps;
    d.degraded = degraded - o.degraded;
    d.replaces = replaces - o.replaces;
    d.rescale = rescale - o.rescale;
    d.axis = axis - o.axis;
    d.rebuild = rebuild - o.rebuild;
    d.coalesced = coalesced - o.coalesced;
    return d;
  }
};

/// The counter identities every window must satisfy.
void check_counts(Run& run, const Counts& d, const char* window) {
  if (d.hits + d.builds + d.sweeps + d.degraded != d.queries)
    run.violation(std::string(window) +
                  ": hits + builds + sweeps + degraded != queries");
  if (d.rescale + d.axis + d.rebuild != d.replaces)
    run.violation(std::string(window) +
                  ": rescale + axis + rebuild != catalog replaces");
}

// --- catalogs, capacities and queries ------------------------------------

/// Table III's nine types with a uniform per-type limit (5 = the paper's
/// catalog itself).
std::shared_ptr<const cloud::Catalog> table3_with_limit(int limit) {
  const cloud::Catalog& table3 = cloud::Catalog::ec2_table3();
  if (limit == cloud::kDefaultInstanceLimit) return cloud::Catalog::ec2_table3_ptr();
  return std::make_shared<const cloud::Catalog>(table3.with_limits(
      table3.name(), table3.region() + "-limit" + std::to_string(limit),
      std::vector<int>(table3.size(), limit)));
}

std::uint64_t mix_seed(std::uint64_t seed, const std::string& salt) {
  std::uint64_t h = 1469598103934665603ull ^ seed;
  for (const char c : salt) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return h;
}

double uniform(std::mt19937_64& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

/// One generated planning query and the capacity it is asked against.
struct QuerySpec {
  Query query;
  const core::ResourceCapacity* capacity;
};

/// Distinct 1-D queries whose answers land on the cost-time trade-off:
/// deadline and budget are drawn between the unconstrained cheapest and
/// fastest points, scaled with the demand (time and cost are linear in
/// it). `cheapest`/`fastest` come from one unconstrained probe.
std::vector<QuerySpec> make_scalar_queries(
    std::mt19937_64& rng, std::size_t count, double base_demand,
    const core::CostTimePoint& cheapest, const core::CostTimePoint& fastest,
    const core::ResourceCapacity& capacity, Constraints shape,
    parallel::ThreadPool* pool) {
  std::vector<QuerySpec> out;
  out.reserve(count);
  SweepOptions options;
  options.collect_pareto = true;
  options.pool = pool;
  for (std::size_t i = 0; i < count; ++i) {
    const double scale = std::exp2(uniform(rng, -2.0, 2.0));
    Constraints c = shape;
    c.deadline_seconds =
        scale * uniform(rng, 1.2 * fastest.seconds, 1.5 * cheapest.seconds);
    c.budget_dollars =
        scale * uniform(rng, 1.2 * cheapest.cost, 1.5 * fastest.cost);
    out.push_back({Query::make(base_demand * scale, c, options), &capacity});
  }
  return out;
}

/// Reference answer: a direct sweep with the index disabled, computed
/// independently of the planner's own path -- on the calling thread (no
/// pool, so no parallel split or merge) with the portable scalar kernels
/// (the SIMD variants are bit-identical to them by design). A defect in
/// the index, the parallel split or a SIMD kernel therefore shows. The
/// SIMD level is process-wide: call this only while nothing else sweeps.
SweepResult reference_sweep(const core::ConfigurationSpace& space,
                            const core::ResourceCapacity& capacity,
                            const cloud::Catalog& catalog, const Query& query) {
  struct ScalarLevel {
    core::simd::Level saved = core::simd::active_level();
    ScalarLevel() { core::simd::set_level(core::simd::Level::kScalar); }
    ~ScalarLevel() { core::simd::set_level(saved); }
  } scalar;
  SweepOptions options = query.options();
  options.index_policy = core::IndexPolicy::Never();
  options.pool = nullptr;
  return core::sweep(space, capacity, catalog, query.with_options(options));
}

SweepResult reference_sweep(const cloud::Catalog& catalog,
                            const core::ResourceCapacity& capacity,
                            const Query& query) {
  return reference_sweep(core::ConfigurationSpace::for_catalog(catalog),
                         capacity, catalog, query);
}

// --- serving ---------------------------------------------------------------

/// Everything one serving workload sets up: catalog, characterized
/// capacity, engine with the catalog registered (and warmed).
struct ServeWorld {
  std::shared_ptr<const cloud::Catalog> catalog;
  std::unique_ptr<core::ResourceCapacity> capacity;
  std::unique_ptr<core::PlannerEngine> engine;
  double warm_plan_seconds = 0.0;  // the warming engine.plan call
};

/// One sent request and its outcome.
struct Served {
  std::uint32_t query = 0;
  std::uint8_t tenant = 0;
  bool open = true;
  double due = 0.0, submit_start = 0.0, submit_end = 0.0;
  std::future<serve::ServeOutcome> future;
  // outcome.result is kept only for requests of the queries the answer
  // check samples (`kept`); the others' Pareto vectors would otherwise
  // dominate the process's peak RSS.
  serve::ServeOutcome outcome;
  core::QueryRoute route = core::QueryRoute::kSweep;
  bool kept = false;
  double resolved = 0.0;

  double latency() const { return resolved - due; }
  bool planned() const { return outcome.status == serve::ServeStatus::kPlanned; }
};

/// Seeded request stream: each arrival asks a uniformly drawn query for
/// one of the two tenants; with probability `duplicate_share` the other
/// tenant sends the identical request at the same instant (a duplicate
/// that can join the first one's computation while it is in flight).
class Stream {
 public:
  struct Arrival {
    std::uint32_t query = 0;
    std::uint8_t tenant = 0;
    bool duplicated = false;
  };

  Stream(std::uint64_t seed, std::size_t queries, double duplicate_share)
      : rng_(seed), queries_(queries), duplicate_share_(duplicate_share) {}

  Arrival next() {
    Arrival a;
    a.tenant = static_cast<std::uint8_t>(rng_() & 1u);
    a.query = static_cast<std::uint32_t>(rng_() % queries_);
    a.duplicated =
        duplicate_share_ > 0 && uniform(rng_, 0.0, 1.0) < duplicate_share_;
    return a;
  }

 private:
  std::mt19937_64 rng_;
  std::size_t queries_;
  double duplicate_share_;
};

/// One catalog edit of the catalog-edit probe: PlannerEngine::add_catalog
/// with replace=true.
struct Edit {
  enum class Kind { kPrice, kDecrease, kRestore } kind = Kind::kPrice;
  std::shared_ptr<const cloud::Catalog> catalog;
  // Capacity pinned to this catalog's structure: a limit change makes the
  // old pin incompatible, so queries re-pin (ResourceCapacity::rebound).
  std::shared_ptr<const core::ResourceCapacity> capacity;
  double start = 0.0, end = 0.0;  // measured
  bool ok = false;
};

const char* edit_kind_name(Edit::Kind kind) {
  switch (kind) {
    case Edit::Kind::kPrice: return "rescale";
    case Edit::Kind::kDecrease: return "axis";
    case Edit::Kind::kRestore: return "rebuild";
  }
  return "?";
}

/// Apply `edit` to the engine's "live" catalog, timed and traced.
void apply_edit(Run& run, core::PlannerEngine& engine, Edit& edit) {
  edit.start = now_seconds();
  try {
    engine.add_catalog("live", edit.catalog, /*replace=*/true);
    edit.ok = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "add_catalog failed: %s\n", e.what());
  }
  edit.end = now_seconds();
  run.spans.add(std::string("engine.add_catalog.") + edit_kind_name(edit.kind),
                edit.start, edit.end);
}

/// Stamps of dispatch starts (traced run only), keyed by query number.
class DispatchLog {
 public:
  explicit DispatchLog(const std::vector<QuerySpec>& queries) {
    for (std::size_t i = 0; i < queries.size(); ++i)
      index_.emplace(key(queries[i].query), static_cast<std::uint32_t>(i));
  }

  void stamp(const serve::PlanRequest& request) {
    const double t = now_seconds();
    const auto it = index_.find(key(request.query));
    if (it == index_.end()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    stamps_[it->second].push_back(t);
  }

  /// The dispatch of `query` inside [from, to], or nullopt.
  std::optional<double> find(std::uint32_t query, double from,
                             double to) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = stamps_.find(query);
    if (it == stamps_.end()) return std::nullopt;
    for (const double t : it->second)
      if (t >= from && t <= to) return t;
    return std::nullopt;
  }

 private:
  static std::string key(const Query& q) {
    std::string k;
    const auto put = [&k](double v) {
      k.append(reinterpret_cast<const char*>(&v), sizeof v);
    };
    for (const double d : q.demand_vector().values) put(d);
    put(q.constraints().deadline_seconds);
    put(q.constraints().budget_dollars);
    put(q.constraints().confidence_z);
    return k;
  }

  std::unordered_map<std::string, std::uint32_t> index_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint32_t, std::vector<double>> stamps_;
};

/// The service plus the request bookkeeping of one window.
class Server {
 public:
  /// Answers of the first `check_queries` distinct queries served (a
  /// sample fixed by the seeded stream) are kept for the answer check.
  Server(ServeWorld& world, const std::vector<QuerySpec>& queries,
         DispatchLog* log, std::size_t check_queries = 0)
      : queries_(queries), check_queries_(check_queries) {
    serve::ServiceOptions options;
    options.num_workers = kServiceWorkers;
    options.queue_capacity = 1u << 16;  // fixed loads never need shedding
    options.shed_watermark = 1u << 16;
    options.coalesce = true;
    options.clock = now_seconds;
    if (log != nullptr)
      options.before_plan_hook = [log](const serve::PlanRequest& request) {
        log->stamp(request);
      };
    service_ = std::make_unique<serve::PlannerService>(*world.engine, options);
  }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void submit(Served& s) {
    const QuerySpec& spec = queries_[s.query];
    serve::PlanRequest request{s.tenant == 0 ? "tenant-a" : "tenant-b",
                               "live", *spec.capacity, spec.query, {}};
    s.submit_start = now_seconds();
    s.future = service_->submit(std::move(request));
    s.submit_end = now_seconds();
  }

  void collect(Served& s) {
    s.outcome = s.future.get();
    s.route = s.outcome.result.route;
    if (checked_.count(s.query) == 0 && checked_.size() < check_queries_ &&
        s.planned())
      checked_.insert(s.query);
    s.kept = checked_.count(s.query) != 0;
    if (!s.kept) s.outcome.result = SweepResult{};
    // The service clock is now_seconds(); admission happens inside
    // submit(), so submit_start + total_seconds is the resolution time.
    s.resolved = s.submit_start + s.outcome.total_seconds;
  }

  /// Open loop at a fixed rate: request i is due at start + i / rate and
  /// is timed from that due time, however late the generator sends it.
  void open_loop(Stream& stream, double rate, double duration,
                 std::vector<Served>& out) {
    const double start = now_seconds() + 1e-3;
    const auto n = static_cast<std::size_t>(std::max(1.0, rate * duration));
    const std::size_t first = out.size();
    out.resize(first + n);
    for (std::size_t i = 0; i < n;) {
      const double due = start + static_cast<double>(i) / rate;
      sleep_until_seconds(due);
      const Stream::Arrival arrival = stream.next();
      const std::size_t copies = arrival.duplicated && i + 1 < n ? 2 : 1;
      for (std::size_t c = 0; c < copies; ++c, ++i) {
        Served& s = out[first + i];
        s.due = due;
        s.query = arrival.query;
        s.tenant = static_cast<std::uint8_t>(arrival.tenant ^ c);
        s.open = true;
        submit(s);
      }
    }
    for (std::size_t i = first; i < out.size(); ++i) collect(out[i]);
  }

  /// Closed loop with `inflight` requests outstanding; returns completed
  /// requests per second of wall time.
  double closed_loop(Stream& stream, std::size_t inflight, double duration,
                     std::vector<Served>& out) {
    const std::size_t first = out.size();
    out.reserve(first + 1 + static_cast<std::size_t>(duration * 20000));
    std::deque<std::size_t> pending;
    const double start = now_seconds();
    const auto send = [&] {
      const Stream::Arrival arrival = stream.next();
      const double due = now_seconds();
      for (int c = 0; c < (arrival.duplicated ? 2 : 1); ++c) {
        out.emplace_back();
        Served& s = out.back();
        s.open = false;
        s.query = arrival.query;
        s.tenant = static_cast<std::uint8_t>(arrival.tenant ^ c);
        s.due = due;
        submit(s);
        pending.push_back(out.size() - 1);
      }
    };
    for (std::size_t i = 0; i < inflight; ++i) send();
    while (!pending.empty()) {
      collect(out[pending.front()]);
      pending.pop_front();
      if (now_seconds() < start + duration &&
          out.size() + 2 <= out.capacity())
        send();
    }
    return static_cast<double>(out.size() - first) / (now_seconds() - start);
  }

  /// The timed window: kSlices alternations of an open-loop slice and a
  /// closed-loop slice, so both phases sample the whole window. Returns
  /// the median closed-loop throughput of the slices, so a neighbour's
  /// burst on the shared machine moves one slice, not the result.
  double window(Stream& stream, const ServeShape& shape, double seconds,
                std::vector<Served>& out) {
    constexpr int kSlices = 10;
    const double slice = seconds / kSlices;
    std::vector<double> throughput;
    for (int i = 0; i < kSlices; ++i) {
      open_loop(stream, shape.open_rate_qps, slice * shape.open_share, out);
      throughput.push_back(closed_loop(
          stream, shape.inflight, slice * (1.0 - shape.open_share), out));
    }
    return median(throughput);
  }

  void stop() { service_->stop(); }

 private:
  const std::vector<QuerySpec>& queries_;
  std::size_t check_queries_;
  std::unordered_set<std::uint32_t> checked_;
  std::unique_ptr<serve::PlannerService> service_;
};

/// Untimed closed loop on the workload's own stream before the window.
void warm_up(Run& run, ServeWorld& world, const std::vector<QuerySpec>& queries,
             Stream& stream, const ServeShape& shape) {
  std::vector<Served> ignored;
  Server server(world, queries, nullptr);
  server.closed_loop(stream, shape.inflight,
                     run.opt.tiny ? 0.1 * kWarmupSeconds : kWarmupSeconds,
                     ignored);
  server.stop();
}

/// Per-request spans of the traced run: request (due -> resolved) with
/// generator lag, submit, queue wait and either the engine plan (own
/// dispatch) or the coalesce wait (answered by another request).
void record_request_spans(Run& run, const std::vector<Served>& served,
                          const DispatchLog& log) {
  std::uint64_t request_id = 0;
  for (const Served& s : served) {
    ++request_id;
    const std::uint64_t root =
        run.spans.open("request", s.due, 0, request_id);
    run.spans.add("gen.lag", s.due, s.submit_start, root, request_id);
    run.spans.add("serve.submit", s.submit_start, s.submit_end, root,
                  request_id);
    if (s.planned()) {
      const std::optional<double> dispatch =
          s.outcome.coalesced
              ? std::nullopt
              : log.find(s.query, s.submit_start - 1e-4, s.resolved + 1e-4);
      if (dispatch) {
        run.spans.add("serve.queue", s.submit_end, *dispatch, root,
                      request_id);
        run.spans.add("engine.plan", *dispatch, s.resolved, root, request_id);
      } else {
        run.spans.add("serve.coalesce_wait", s.submit_end, s.resolved, root,
                      request_id);
      }
    }
    run.spans.finish(root, std::max(s.resolved, s.submit_end));
  }
}

/// Re-check every kept answer (the sample the Server kept) against a
/// reference sweep of `catalog`, once per distinct query.
void check_served(Run& run, const std::vector<Served>& served,
                  const std::vector<QuerySpec>& queries,
                  const cloud::Catalog& catalog) {
  std::map<std::uint32_t, std::vector<const Served*>> groups;
  for (const Served& s : served)
    if (s.planned() && s.kept) groups[s.query].push_back(&s);
  for (const auto& [query, list] : groups) {
    const QuerySpec& spec = queries[query];
    const SweepResult reference =
        reference_sweep(catalog, *spec.capacity, spec.query);
    for (const Served* s : list)
      record_verdict(run, compare_answers(s->outcome.result, reference),
                     "a served answer");
  }
}

/// Metrics common to the serving workloads, from the untraced or traced
/// window alike.
void report_serving(Run& run, const std::vector<Served>& served,
                    double throughput_qps, const ServeShape& shape) {
  std::vector<double> open_latency, queue, service, submit_us, lag;
  std::uint64_t open_sent = 0, good = 0, coalesced = 0, shed = 0;
  for (const Served& s : served) {
    ++run.attempted;
    const bool planned = s.planned();
    if (!planned) ++run.failed;
    if (s.outcome.status == serve::ServeStatus::kOverloaded) ++shed;
    submit_us.push_back((s.submit_end - s.submit_start) * 1e6);
    if (planned) {
      coalesced += s.outcome.coalesced;
      queue.push_back(s.outcome.queue_seconds * 1e3);
      service.push_back((s.outcome.total_seconds - s.outcome.queue_seconds) *
                        1e3);
    }
    if (!s.open) continue;
    ++open_sent;
    lag.push_back((s.submit_start - s.due) * 1e3);
    if (!planned) continue;
    open_latency.push_back(s.latency() * 1e3);
    if (s.latency() * 1e3 <= shape.latency_limit_ms) ++good;
  }
  const double n = static_cast<double>(std::max<std::size_t>(served.size(), 1));
  MetricSink& m = run.metrics;
  const Percentile p99 = percentile(open_latency, 0.99);
  m.set("latency_p50_ms", median(open_latency), "ms");
  m.set("latency_p99_ms", p99.value, "ms");
  m.set("latency_samples", static_cast<double>(p99.samples), "count");
  m.set("latency_tail_q", p99.q, "frac");
  m.set("throughput_qps", throughput_qps, "1/s");
  m.set("goodput_frac",
        static_cast<double>(good) / static_cast<double>(std::max<std::uint64_t>(open_sent, 1)),
        "frac");
  m.set("serve.submit_us.p50", median(submit_us), "us");
  m.set("serve.queue_wait_ms.p50", median(queue), "ms");
  m.set("serve.queue_wait_ms.p99", percentile(queue, 0.99).value, "ms");
  m.set("serve.service_ms.p50", median(service), "ms");
  m.set("serve.coalesced_frac", static_cast<double>(coalesced) / n, "frac");
  m.set("serve.shed_frac", static_cast<double>(shed) / n, "frac");
  m.set("gen.lag_ms.p99", percentile(lag, 0.99).value, "ms");
}

void report_counts(Run& run, const Counts& d, const core::PlannerEngine& engine) {
  MetricSink& m = run.metrics;
  m.set("engine.route.queries", static_cast<double>(d.queries), "count");
  m.set("engine.route.index_hits", static_cast<double>(d.hits), "count");
  m.set("engine.route.builds", static_cast<double>(d.builds), "count");
  m.set("engine.route.sweeps", static_cast<double>(d.sweeps), "count");
  m.set("engine.route.degraded", static_cast<double>(d.degraded), "count");
  m.set("engine.delta.rescale", static_cast<double>(d.rescale), "count");
  m.set("engine.delta.axis", static_cast<double>(d.axis), "count");
  m.set("engine.delta.rebuild", static_cast<double>(d.rebuild), "count");
  m.set("serve.coalesced", static_cast<double>(d.coalesced), "count");
  m.set("engine.cache_bytes", static_cast<double>(engine.cached_index_bytes()),
        "bytes");
}

/// Engine time per route from the traced dispatch stamps.
void report_engine_times(Run& run, const std::vector<Served>& served,
                         const DispatchLog& log) {
  std::vector<double> index_us, sweep_ms;
  for (const Served& s : served) {
    if (!s.planned() || s.outcome.coalesced) continue;
    const auto dispatch =
        log.find(s.query, s.submit_start - 1e-4, s.resolved + 1e-4);
    if (!dispatch) continue;
    const double seconds = s.resolved - *dispatch;
    if (s.route == core::QueryRoute::kIndex)
      index_us.push_back(seconds * 1e6);
    else
      sweep_ms.push_back(seconds * 1e3);
  }
  run.metrics.set("engine.plan_us.index.p50", median(index_us), "us");
  run.metrics.set("engine.plan_ms.sweep.p50", median(sweep_ms), "ms");
}

// --- per-layer probes (traced run) ------------------------------------------

/// Tracing overhead: short closed loops alternating without and with the
/// dispatch hook (the only tracing work inside the timed path); the
/// median of untraced/traced throughput, minus one.
void report_trace_overhead(Run& run, ServeWorld& world,
                           const std::vector<QuerySpec>& queries,
                           Stream& stream, const ServeShape& shape,
                           DispatchLog& log) {
  const double seconds = std::max(0.25, 0.05 * run.opt.seconds);
  std::vector<double> ratios;
  for (int pair = 0; pair < 4; ++pair) {
    double qps[2] = {0.0, 0.0};
    for (const bool traced : {false, true}) {
      std::vector<Served> extra;
      Server server(world, queries, traced ? &log : nullptr);
      qps[traced] = server.closed_loop(stream, shape.inflight, seconds, extra);
      server.stop();
    }
    ratios.push_back(qps[0] / qps[1] - 1.0);
  }
  run.metrics.set("trace.overhead_frac", median(ratios), "frac");
}

/// The FrontierIndex delta paths called directly: five in-band repriced()
/// calls and one one-step with_limit() decrease.
void probe_index_deltas(Run& run, const core::FrontierIndex& index,
                        const cloud::Catalog& catalog) {
  std::mt19937_64 rng(mix_seed(run.opt.seed, "reprice"));
  std::vector<double> repriced_ms;
  for (int i = 0; i < 5; ++i) {
    std::vector<double> prices(catalog.hourly_costs().begin(),
                               catalog.hourly_costs().end());
    for (double& p : prices) p *= 1.0 + uniform(rng, -0.02, 0.02);
    const cloud::Catalog to = catalog.repriced(
        catalog.name(), catalog.region() + "-probe" + std::to_string(i), prices);
    const double t0 = now_seconds();
    const auto out = index.repriced(to);
    const double t1 = now_seconds();
    run.spans.add("index.repriced", t0, t1);
    if (!out) run.violation("in-band repriced() refused");
    repriced_ms.push_back((t1 - t0) * 1e3);
  }
  run.metrics.set("index.repriced_ms.p50", median(repriced_ms), "ms");

  std::vector<int> limits = catalog.limits();
  const std::size_t type = rng() % limits.size();
  limits[type] -= 1;
  const cloud::Catalog shrunk =
      catalog.with_limits(catalog.name(), catalog.region() + "-probe-axis", limits);
  const double t0 = now_seconds();
  const auto narrowed = index.with_limit(type, limits[type], shrunk);
  const double t1 = now_seconds();
  run.spans.add("index.with_limit", t0, t1);
  if (!narrowed) run.violation("with_limit() refused a one-step decrease");
  run.metrics.set("index.with_limit_ms.p50", (t1 - t0) * 1e3, "ms");
}

/// Direct FrontierIndex calls on the workload's catalog: build and query.
void probe_index(Run& run, const cloud::Catalog& catalog,
                 const core::ResourceCapacity& capacity,
                 const std::vector<QuerySpec>& queries,
                 parallel::ThreadPool* pool) {
  const core::ConfigurationSpace space =
      core::ConfigurationSpace::for_catalog(catalog);
  core::FrontierBuildOptions build_options;
  build_options.pool = pool;
  double t0 = now_seconds();
  const core::FrontierIndex index =
      core::FrontierIndex::build(space, capacity, catalog, build_options);
  double t1 = now_seconds();
  run.spans.add("index.build", t0, t1);
  run.metrics.set("index.build_s", t1 - t0, "s");
  run.metrics.set("index.bytes_per_config",
                  static_cast<double>(index.memory_bytes()) /
                      static_cast<double>(space.size()),
                  "bytes");
  run.metrics.set("index.frontier_entries",
                  static_cast<double>(index.frontier().size()), "count");

  std::vector<double> query_us;
  const std::size_t calls = std::min<std::size_t>(queries.size(), 2000);
  for (std::size_t i = 0; i < calls; ++i) {
    t0 = now_seconds();
    const SweepResult r = index.query(queries[i].query);
    t1 = now_seconds();
    run.spans.add("index.query", t0, t1);
    query_us.push_back((t1 - t0) * 1e6);
    if (r.total == 0) run.violation("index.query returned an empty space");
  }
  run.metrics.set("index.query_us.p50", median(query_us), "us");
  run.metrics.set("index.query_us.p99", percentile(query_us, 0.99).value, "us");
}

/// Direct core::sweep calls over the paper's 10M space: feasibility-only
/// and with Pareto collection.
void probe_sweep_10m(Run& run, const core::ResourceCapacity& capacity,
                     double demand, parallel::ThreadPool* pool) {
  const cloud::Catalog& table3 = cloud::Catalog::ec2_table3();
  const core::ConfigurationSpace space =
      core::ConfigurationSpace::for_catalog(table3);
  Constraints c;
  c.deadline_seconds = 24 * 3600.0;
  SweepOptions options;
  options.pool = pool;
  std::vector<double> feasibility, pareto;
  std::size_t points = 0;
  for (int rep = 0; rep < 3; ++rep) {
    options.collect_pareto = false;
    double t0 = now_seconds();
    (void)core::sweep(space, capacity, table3, Query::make(demand, c, options));
    double t1 = now_seconds();
    run.spans.add("sweep.feasibility", t0, t1);
    feasibility.push_back((t1 - t0) * 1e3);
    options.collect_pareto = true;
    t0 = now_seconds();
    const SweepResult r =
        core::sweep(space, capacity, table3, Query::make(demand, c, options));
    t1 = now_seconds();
    run.spans.add("sweep.pareto", t0, t1);
    pareto.push_back((t1 - t0) * 1e3);
    points = r.pareto.size();
  }
  const double f = median(feasibility), p = median(pareto);
  run.metrics.set("sweep.feasibility_ms", f, "ms");
  run.metrics.set("sweep.pareto_ms", p, "ms");
  run.metrics.set("sweep.pareto_ratio", p / f, "ratio");
  run.metrics.set("sweep.configs_per_s",
                  static_cast<double>(space.size()) / (f / 1e3), "1/s");
  run.metrics.set("pareto.frontier_points", static_cast<double>(points),
                  "count");
}

/// Mean self time per span of each traced layer.
void report_self_times(Run& run) {
  const auto self = run.spans.self_times();
  const auto mean_ms = [&self](std::initializer_list<const char*> names) {
    double seconds = 0.0;
    std::size_t spans = 0;
    for (const char* name : names) {
      const auto it = self.find(name);
      if (it == self.end()) continue;
      seconds += it->second.seconds;
      spans += it->second.spans;
    }
    return spans == 0 ? 0.0 : seconds * 1e3 / static_cast<double>(spans);
  };
  MetricSink& m = run.metrics;
  m.set("self.request_ms", mean_ms({"request"}), "ms");
  m.set("self.gen_lag_ms", mean_ms({"gen.lag"}), "ms");
  m.set("self.serve_submit_ms", mean_ms({"serve.submit"}), "ms");
  m.set("self.serve_queue_ms", mean_ms({"serve.queue"}), "ms");
  m.set("self.serve_coalesce_wait_ms", mean_ms({"serve.coalesce_wait"}), "ms");
  m.set("self.engine_plan_ms", mean_ms({"engine.plan"}), "ms");
  m.set("self.engine_add_catalog_ms",
        mean_ms({"engine.add_catalog.rescale", "engine.add_catalog.axis",
                 "engine.add_catalog.rebuild"}),
        "ms");
  m.set("self.job_ms", mean_ms({"job"}), "ms");
  m.set("self.celia_build_ms", mean_ms({"celia.build"}), "ms");
  m.set("self.celia_select_ms", mean_ms({"celia.select"}), "ms");
  m.set("self.celia_min_cost_ms", mean_ms({"celia.min_cost_configuration"}),
        "ms");
  m.set("self.validate_table4_ms", mean_ms({"validate.table4"}), "ms");
  m.set("trace.spans", static_cast<double>(run.spans.size()), "count");
}

// --- serving workloads --------------------------------------------------------

/// Names of every per-layer metric, set to 0 up front so each workload
/// prints the full list; a layer the workload never calls stays 0.
void declare_layer_metrics(Run& run) {
  static const std::pair<const char*, const char*> kLayer[] = {
      {"latency_p99_ms", "ms"}, {"latency_samples", "count"},
      {"latency_tail_q", "frac"}, {"goodput_frac", "frac"},
      {"error_frac", "frac"}, {"update_p50_ms", "ms"},
      {"update_p90_ms", "ms"}, {"updates", "count"}, {"pipeline_s", "s"},
      {"serve.submit_us.p50", "us"}, {"serve.queue_wait_ms.p50", "ms"},
      {"serve.queue_wait_ms.p99", "ms"}, {"serve.service_ms.p50", "ms"},
      {"serve.coalesced_frac", "frac"}, {"serve.shed_frac", "frac"},
      {"serve.coalesced", "count"}, {"gen.lag_ms.p99", "ms"},
      {"engine.plan_us.index.p50", "us"}, {"engine.plan_ms.sweep.p50", "ms"},
      {"engine.plan_ms.build.p50", "ms"}, {"engine.route.queries", "count"},
      {"engine.route.index_hits", "count"}, {"engine.route.builds", "count"},
      {"engine.route.sweeps", "count"}, {"engine.route.degraded", "count"},
      {"engine.cache_bytes", "bytes"},
      {"engine.add_catalog_ms.rescale.p50", "ms"},
      {"engine.add_catalog_ms.axis.p50", "ms"},
      {"engine.add_catalog_ms.rebuild.p50", "ms"},
      {"engine.delta.rescale", "count"}, {"engine.delta.axis", "count"},
      {"engine.delta.rebuild", "count"}, {"index.build_s", "s"},
      {"index.query_us.p50", "us"}, {"index.query_us.p99", "us"},
      {"index.repriced_ms.p50", "ms"}, {"index.with_limit_ms.p50", "ms"},
      {"index.bytes_per_config", "bytes"}, {"index.frontier_entries", "count"},
      {"sweep.feasibility_ms", "ms"}, {"sweep.pareto_ms", "ms"},
      {"sweep.pareto_ratio", "ratio"}, {"sweep.risk_ms.p50", "ms"},
      {"sweep.multidim_ms.p50", "ms"}, {"sweep.configs_per_s", "1/s"},
      {"pareto.frontier_points", "count"}, {"celia.build_ms.x264", "ms"},
      {"celia.build_ms.galaxy", "ms"}, {"celia.build_ms.sand", "ms"},
      {"validate.table4_ms", "ms"}, {"check.answers", "count"},
      {"check.mismatches", "count"}, {"check.tie_mismatch", "count"},
      {"trace.overhead_frac", "frac"},
  };
  for (const auto& [name, unit] : kLayer) run.metrics.set(name, 0.0, unit);
}

/// Time `make` repeatedly (each result replaces the last, which is
/// destroyed first so only one world is resident) and report the median
/// as setup_s.
template <typename World, typename Make>
std::unique_ptr<World> repeated_setup(Run& run, Make make) {
  std::unique_ptr<World> world;
  const double begin = now_seconds();
  for (int rep = 0; rep < kMaxSetups && (rep < kMinSetups ||
                                         now_seconds() - begin < kSetupBudget);
       ++rep) {
    world.reset();
    // Hand the previous repetition's freed heap back to the system, so the
    // peak RSS reflects one set-up rather than the benchmark's repeats.
    malloc_trim(0);
    const double t0 = now_seconds();
    world = make();
    const double t1 = now_seconds();
    run.spans.add("setup", t0, t1);
    run.setup_seconds.push_back(t1 - t0);
  }
  run.metrics.set("setup_s", median(run.setup_seconds), "s");
  return world;
}

/// Register `catalog`, characterize galaxy's capacity against it on the
/// fixed serving provider, and plan `warm` once (for an index-eligible query that
/// builds and caches the catalog's FrontierIndex).
std::unique_ptr<ServeWorld> make_world(
    std::shared_ptr<const cloud::Catalog> catalog,
    const std::function<Query()>& warm, SweepResult* warm_answer) {
  auto world = std::make_unique<ServeWorld>();
  world->catalog = std::move(catalog);
  world->engine = std::make_unique<core::PlannerEngine>();
  world->engine->add_catalog("live", world->catalog);
  cloud::CloudProvider provider(kServingProviderSeed, world->catalog);
  world->capacity = std::make_unique<core::ResourceCapacity>(
      core::characterize_capacity(*apps::make_galaxy(), provider));
  const double t1 = now_seconds();
  *warm_answer = world->engine->plan("live", *world->capacity, warm());
  world->warm_plan_seconds = now_seconds() - t1;
  return world;
}

/// Unconstrained probe with Pareto collection on, like every workload
/// query (it warms the path the window takes): its min-cost point is the
/// cheapest configuration, its min-time point the fastest.
Query unconstrained(double demand, Constraints shape,
                    parallel::ThreadPool* pool) {
  SweepOptions options;
  options.collect_pareto = true;
  options.pool = pool;
  return Query::make(demand, shape, options);
}

double galaxy_base_demand() {
  return apps::make_galaxy()->demand_vector({65536, 1000}).values[0];
}

void report_updates(Run& run, const std::vector<Edit>& edits) {
  std::vector<double> all;
  std::map<Edit::Kind, std::vector<double>> by_kind;
  for (const Edit& edit : edits) {
    ++run.attempted;
    if (!edit.ok) ++run.failed;
    const double ms = (edit.end - edit.start) * 1e3;
    all.push_back(ms);
    by_kind[edit.kind].push_back(ms);
  }
  MetricSink& m = run.metrics;
  m.set("updates", static_cast<double>(all.size()), "count");
  m.set("update_p50_ms", median(all), "ms");
  m.set("update_p90_ms", percentile(all, 0.90).value, "ms");
  m.set("engine.add_catalog_ms.rescale.p50", median(by_kind[Edit::Kind::kPrice]), "ms");
  m.set("engine.add_catalog_ms.axis.p50", median(by_kind[Edit::Kind::kDecrease]), "ms");
  m.set("engine.add_catalog_ms.rebuild.p50", median(by_kind[Edit::Kind::kRestore]), "ms");
}

/// The catalog-edit layer measured directly, without the service (traced
/// plan_index_hot run): PlannerEngine::add_catalog(replace) on Table III's
/// types at limit 4 (1,953,124 configs; on the 10M space a reprice holds
/// the engine lock ~150 ms and with_limit takes ~2.9 s) with the index
/// warm -- one axis decrease, 98 in-band price moves (each price to +2% or
/// -2%, seeded sign), one structural restore -- with a seeded sample of
/// queries re-planned and checked after the price moves and after the
/// restore (whose first plan rebuilds the index).
void probe_catalog_edits(Run& run, parallel::ThreadPool* pool) {
  SweepResult probe;
  const double base_demand = galaxy_base_demand();
  const auto warm = [&] { return unconstrained(base_demand, {}, pool); };
  std::unique_ptr<ServeWorld> world =
      make_world(table3_with_limit(run.opt.tiny ? 2 : 4), warm, &probe);
  std::mt19937_64 rng(mix_seed(run.opt.seed, "edit-probe"));
  const std::vector<QuerySpec> queries = make_scalar_queries(
      rng, run.opt.tiny ? 4 : kEditCheckQueries, base_demand, probe.min_cost,
      probe.min_time, *world->capacity, {}, pool);
  const cloud::Catalog& base = *world->catalog;
  std::vector<Edit> edits;
  std::shared_ptr<const cloud::Catalog> current = world->catalog;
  auto pinned = std::make_shared<const core::ResourceCapacity>(*world->capacity);
  const auto push = [&](Edit::Kind kind, cloud::Catalog next) {
    current = std::make_shared<const cloud::Catalog>(std::move(next));
    if (kind != Edit::Kind::kPrice)
      pinned = std::make_shared<const core::ResourceCapacity>(
          world->capacity->rebound(*current));
    Edit edit;
    edit.kind = kind;
    edit.catalog = current;
    edit.capacity = pinned;
    edits.push_back(std::move(edit));
  };
  std::vector<int> limits = base.limits();
  limits[0] -= 1;
  push(Edit::Kind::kDecrease,
       current->with_limits(base.name(), base.region() + "-probe-axis", limits));
  for (int i = 0; i < 98; ++i) {
    std::vector<double> prices(base.hourly_costs().begin(),
                               base.hourly_costs().end());
    for (double& p : prices) p *= (rng() & 1u) != 0 ? 1.02 : 0.98;
    push(Edit::Kind::kPrice,
         current->repriced(base.name(),
                           base.region() + "-probe" + std::to_string(i), prices));
  }
  push(Edit::Kind::kRestore,
       current->with_limits(base.name(), base.region() + "-probe-restore",
                            base.limits()));

  const Counts before = Counts::read();
  const auto check_now = [&](const Edit& edit) {
    for (const QuerySpec& spec : queries) {
      ++run.attempted;
      const SweepResult served =
          world->engine->plan("live", *edit.capacity, spec.query);
      record_verdict(run,
                     compare_answers(served, reference_sweep(*edit.catalog,
                                                             *edit.capacity,
                                                             spec.query)),
                     "a plan after a catalog edit");
    }
  };
  for (std::size_t e = 0; e + 1 < edits.size(); ++e)
    apply_edit(run, *world->engine, edits[e]);
  check_now(edits[edits.size() - 2]);
  apply_edit(run, *world->engine, edits.back());
  check_now(edits.back());
  const Counts d = Counts::read() - before;
  check_counts(run, d, "catalog-edit probe");
  report_updates(run, edits);
  run.metrics.set("engine.delta.rescale", static_cast<double>(d.rescale), "count");
  run.metrics.set("engine.delta.axis", static_cast<double>(d.axis), "count");
  run.metrics.set("engine.delta.rebuild", static_cast<double>(d.rebuild), "count");
  // `base` is owned by the world: keep the catalog alive past its reset.
  const std::shared_ptr<const cloud::Catalog> catalog = world->catalog;
  const core::ResourceCapacity capacity = *world->capacity;
  world.reset();
  malloc_trim(0);
  core::FrontierBuildOptions build_options;
  build_options.pool = pool;
  probe_index_deltas(run,
                     core::FrontierIndex::build(
                         core::ConfigurationSpace::for_catalog(*catalog),
                         capacity, *catalog, build_options),
                     *catalog);
}

/// plan_index_hot: the index-eligible read mix on a warm FrontierIndex.
void run_index_workload(Run& run) {
  const Options& opt = run.opt;
  const ServeShape shape{400.0, 0.6, 64, 25.0,
                         opt.tiny ? 2u : kServeCheckQueries};
  parallel::ThreadPool pool(kServePoolThreads);
  const double base_demand = galaxy_base_demand();

  SweepResult probe;
  std::vector<double> build_ms;
  std::unique_ptr<ServeWorld> world = repeated_setup<ServeWorld>(run, [&] {
    auto w = make_world(table3_with_limit(opt.tiny ? 2 : 5),
                        [&] { return unconstrained(base_demand, {}, &pool); },
                        &probe);
    build_ms.push_back(w->warm_plan_seconds * 1e3);
    return w;
  });
  run.metrics.set("engine.plan_ms.build.p50", median(build_ms), "ms");

  std::mt19937_64 rng(mix_seed(opt.seed, "queries"));
  const std::vector<QuerySpec> queries =
      make_scalar_queries(rng, 4096, base_demand, probe.min_cost,
                          probe.min_time, *world->capacity, {}, &pool);
  Stream stream(mix_seed(opt.seed, "stream"), queries.size(), 0.0);
  std::unique_ptr<DispatchLog> log;
  if (opt.trace) log = std::make_unique<DispatchLog>(queries);

  warm_up(run, *world, queries, stream, shape);
  std::vector<Served> served;
  const Counts before = Counts::read();
  double throughput = 0.0;
  {
    Server server(*world, queries, log.get(), shape.check_queries);
    throughput = server.window(stream, shape, opt.seconds, served);
    server.stop();
  }
  const Counts window = Counts::read() - before;
  check_counts(run, window, "serving window");
  report_serving(run, served, throughput, shape);
  report_counts(run, window, *world->engine);
  check_served(run, served, queries, *world->catalog);

  if (!opt.trace) return;
  record_request_spans(run, served, *log);
  report_engine_times(run, served, *log);
  report_trace_overhead(run, *world, queries, stream, shape, *log);
  // Per-layer probes on a fresh index: free the served one first.
  const std::shared_ptr<const cloud::Catalog> catalog = world->catalog;
  const core::ResourceCapacity capacity = *world->capacity;
  world.reset();
  probe_index(run, *catalog, capacity, queries, &pool);
  probe_catalog_edits(run, &pool);
}

/// plan_sweep_risk: risk-aware (index-ineligible) queries in duplicated
/// pairs against a 262,143-configuration catalog.
void run_sweep_risk(Run& run) {
  const Options& opt = run.opt;
  const ServeShape shape{80.0, 0.85, 8, 250.0, opt.tiny ? 4u : 24u};
  parallel::ThreadPool pool(kServePoolThreads);
  const double base_demand = galaxy_base_demand();
  Constraints risk;
  risk.confidence_z = 1.645;
  risk.rate_sigma = 0.1;

  SweepResult probe;
  std::unique_ptr<ServeWorld> world = repeated_setup<ServeWorld>(run, [&] {
    return make_world(table3_with_limit(opt.tiny ? 1 : 3),
                      [&] { return unconstrained(base_demand, risk, &pool); },
                      &probe);
  });

  std::mt19937_64 rng(mix_seed(opt.seed, "queries"));
  const std::vector<QuerySpec> queries =
      make_scalar_queries(rng, 4096, base_demand, probe.min_cost,
                          probe.min_time, *world->capacity, risk, &pool);
  // Every arrival is a duplicated pair: half the requests repeat one in
  // flight, so coalescing has work to do.
  Stream stream(mix_seed(opt.seed, "stream"), queries.size(), 1.0);
  std::unique_ptr<DispatchLog> log;
  if (opt.trace) log = std::make_unique<DispatchLog>(queries);

  warm_up(run, *world, queries, stream, shape);
  std::vector<Served> served;
  const Counts before = Counts::read();
  double throughput = 0.0;
  {
    Server server(*world, queries, log.get(), shape.check_queries);
    throughput = server.window(stream, shape, opt.seconds, served);
    server.stop();
  }
  const Counts window = Counts::read() - before;
  check_counts(run, window, "serving window");
  report_serving(run, served, throughput, shape);
  report_counts(run, window, *world->engine);
  check_served(run, served, queries, *world->catalog);

  if (!opt.trace) return;
  record_request_spans(run, served, *log);
  report_engine_times(run, served, *log);
  report_trace_overhead(run, *world, queries, stream, shape, *log);

  // Direct sweeps of the two index-ineligible kinds: risk-aware 1-D and
  // 4-D OLTP demand vectors (the latter only here: PlannerEngine::plan
  // rebuilds every query from its scalar demand, so a vector query cannot
  // be served).
  const core::ConfigurationSpace space =
      core::ConfigurationSpace::for_catalog(*world->catalog);
  std::vector<double> risk_ms, multidim_ms;
  for (std::size_t i = 0; i < 10; ++i) {
    const double t0 = now_seconds();
    (void)core::sweep(space, *world->capacity, *world->catalog, queries[i].query);
    const double t1 = now_seconds();
    run.spans.add("sweep.risk", t0, t1);
    risk_ms.push_back((t1 - t0) * 1e3);
  }
  cloud::CloudProvider provider(kServingProviderSeed, world->catalog);
  const auto oltp = apps::make_oltp_classic();
  const core::ResourceCapacity vector_capacity =
      core::characterize_vector_capacity(*oltp, provider);
  SweepOptions options;
  options.pool = &pool;
  for (int i = 0; i < 10; ++i) {
    const apps::DemandVector demand =
        oltp->demand_vector({uniform(rng, 1e8, 1e9), uniform(rng, 0.1, 0.9)});
    Constraints c;
    c.deadline_seconds = 24 * 3600.0;
    const double t0 = now_seconds();
    (void)core::sweep(space, vector_capacity, *world->catalog,
                      Query::make(demand, c, options));
    const double t1 = now_seconds();
    run.spans.add("sweep.multidim", t0, t1);
    multidim_ms.push_back((t1 - t0) * 1e3);
  }
  run.metrics.set("sweep.risk_ms.p50", median(risk_ms), "ms");
  run.metrics.set("sweep.multidim_ms.p50", median(multidim_ms), "ms");
  world.reset();
  cloud::CloudProvider table3_provider(kServingProviderSeed);
  probe_sweep_10m(run,
                  core::characterize_capacity(*apps::make_galaxy(), table3_provider),
                  base_demand, &pool);
}

// --- paper pipeline ---------------------------------------------------------

/// The paper's parameters: one Table IV case per application for select,
/// and the fig5 (Observation 3) and fig6 points for the deadline ladders.
struct PaperCase {
  const char* app;
  apps::AppParams params;
};
const PaperCase kSelectCases[] = {
    {"x264", {16000, 20}}, {"galaxy", {65536, 6000}}, {"sand", {2048e6, 0.32}}};
const PaperCase kLadderCases[] = {{"galaxy", {262144, 1000}},
                                  {"sand", {8192e6, 0.32}},
                                  {"galaxy", {65536, 10000}},
                                  {"sand", {1024e6, 1.0}}};
const double kLadderDeadlines[] = {6, 12, 24, 48, 72};
constexpr double kSelectDeadlineHours = 24.0;

struct JobAnswers {
  std::vector<SweepResult> selects;
  std::vector<std::optional<core::CostTimePoint>> rungs;
  std::vector<core::ValidationRow> table4;
};

struct PipelineWorld {
  std::unique_ptr<parallel::ThreadPool> pool;
  std::map<std::string, std::unique_ptr<apps::ElasticApp>> apps;
};

/// One paper-pipeline job on a fresh provider seeded with `seed`.
JobAnswers run_job(Run& run, PipelineWorld& world, std::uint64_t job,
                   std::vector<double>& answer_ms,
                   std::map<std::string, std::vector<double>>& layer_ms) {
  JobAnswers answers;
  const std::uint64_t root = run.spans.open("job", now_seconds(), 0, job);
  cloud::CloudProvider provider(run.opt.seed);
  std::map<std::string, std::unique_ptr<core::Celia>> models;
  for (const char* name : {"x264", "galaxy", "sand"}) {
    const double t0 = now_seconds();
    models[name] = std::make_unique<core::Celia>(
        core::Celia::build(*world.apps.at(name), provider));
    const double t1 = now_seconds();
    run.spans.add("celia.build", t0, t1, root, job);
    layer_ms[std::string("celia.build_ms.") + name].push_back((t1 - t0) * 1e3);
  }
  SweepOptions options;
  options.pool = world.pool.get();
  for (const PaperCase& c : kSelectCases) {
    const double t0 = now_seconds();
    answers.selects.push_back(models.at(c.app)->select(
        c.params, kSelectDeadlineHours,
        std::numeric_limits<double>::infinity(), options));
    const double t1 = now_seconds();
    run.spans.add("celia.select", t0, t1, root, job);
    answer_ms.push_back((t1 - t0) * 1e3);
  }
  for (const PaperCase& c : kLadderCases)
    for (const double deadline : kLadderDeadlines) {
      const double t0 = now_seconds();
      answers.rungs.push_back(
          models.at(c.app)->min_cost_configuration(c.params, deadline, options));
      const double t1 = now_seconds();
      run.spans.add("celia.min_cost_configuration", t0, t1, root, job);
      answer_ms.push_back((t1 - t0) * 1e3);
    }
  const double t0 = now_seconds();
  cloud::CloudProvider validation_provider(run.opt.seed);
  answers.table4 = core::run_table4_validation(validation_provider);
  const double t1 = now_seconds();
  run.spans.add("validate.table4", t0, t1, root, job);
  layer_ms["validate.table4_ms"].push_back((t1 - t0) * 1e3);
  run.spans.finish(root, t1);
  return answers;
}

bool same_point(const std::optional<core::CostTimePoint>& a,
                const std::optional<core::CostTimePoint>& b, bool* tie) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  if (!same_bits(a->cost, b->cost) || !same_bits(a->seconds, b->seconds))
    return false;
  *tie = *tie || a->config_index != b->config_index;
  return true;
}

bool same_rows(const std::vector<core::ValidationRow>& a,
               const std::vector<core::ValidationRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i].predicted_hours, b[i].predicted_hours) ||
        !same_bits(a[i].actual_hours, b[i].actual_hours) ||
        !same_bits(a[i].predicted_cost, b[i].predicted_cost) ||
        !same_bits(a[i].actual_cost, b[i].actual_cost))
      return false;
  return true;
}

/// Check job 0 against reference sweeps and every later job against job 0.
void check_jobs(Run& run, PipelineWorld& world,
                const std::vector<JobAnswers>& jobs) {
  const auto tally = [&run](Verdict verdict) {
    record_verdict(run, verdict, "a paper-pipeline answer");
  };
  cloud::CloudProvider provider(run.opt.seed);
  std::map<std::string, std::unique_ptr<core::Celia>> models;
  for (const char* name : {"x264", "galaxy", "sand"})
    models[name] = std::make_unique<core::Celia>(
        core::Celia::build(*world.apps.at(name), provider));
  const auto reference = [&models](const PaperCase& c, double deadline_hours,
                                   bool pareto) {
    const core::Celia& m = *models.at(c.app);
    Constraints constraints;
    constraints.deadline_seconds = deadline_hours * 3600.0;
    SweepOptions options;
    options.collect_pareto = pareto;
    return reference_sweep(
        m.space(), m.capacity(), m.catalog(),
        Query::make(m.predict_demand(c.params), constraints, options));
  };
  const JobAnswers& first = jobs.front();
  std::size_t i = 0;
  for (const PaperCase& c : kSelectCases)
    tally(compare_answers(first.selects[i++],
                          reference(c, kSelectDeadlineHours, true)));
  i = 0;
  for (const PaperCase& c : kLadderCases)
    for (const double deadline : kLadderDeadlines) {
      const SweepResult r = reference(c, deadline, false);
      std::optional<core::CostTimePoint> expected;
      if (r.any_feasible) expected = r.min_cost;
      bool tie = false;
      tally(!same_point(first.rungs[i++], expected, &tie) ? Verdict::kMismatch
            : tie                                          ? Verdict::kTieMismatch
                                                           : Verdict::kMatch);
    }
  bool finite = !first.table4.empty();
  for (const core::ValidationRow& row : first.table4)
    finite = finite && std::isfinite(row.time_error) && row.actual_hours > 0;
  tally(finite ? Verdict::kMatch : Verdict::kMismatch);
  // Repeated jobs on the same seed must repeat every answer.
  for (std::size_t j = 1; j < jobs.size(); ++j) {
    for (std::size_t s = 0; s < first.selects.size(); ++s)
      tally(compare_answers(jobs[j].selects[s], first.selects[s]));
    for (std::size_t r = 0; r < first.rungs.size(); ++r) {
      bool tie = false;
      tally(!same_point(jobs[j].rungs[r], first.rungs[r], &tie)
                ? Verdict::kMismatch
            : tie ? Verdict::kTieMismatch
                  : Verdict::kMatch);
    }
    tally(same_rows(jobs[j].table4, first.table4) ? Verdict::kMatch
                                                 : Verdict::kMismatch);
  }
}

/// paper_pipeline: the offline job in a closed loop, one at a time.
void run_paper_pipeline(Run& run) {
  const Options& opt = run.opt;
  // Set-up: the planning pool, the three applications and one warm-up
  // select with Pareto over the paper's 10M space (first touch of the
  // pool, the walk and the Pareto buffers).
  std::unique_ptr<PipelineWorld> world =
      repeated_setup<PipelineWorld>(run, [&] {
        auto w = std::make_unique<PipelineWorld>();
        w->pool = std::make_unique<parallel::ThreadPool>(kPipelinePoolThreads);
        w->apps["x264"] = apps::make_x264();
        w->apps["galaxy"] = apps::make_galaxy();
        w->apps["sand"] = apps::make_sand();
        cloud::CloudProvider provider(opt.seed);
        const core::Celia warm = core::Celia::build(*w->apps["galaxy"], provider);
        SweepOptions options;
        options.pool = w->pool.get();
        (void)warm.select({65536, 6000}, kSelectDeadlineHours,
                          std::numeric_limits<double>::infinity(), options);
        return w;
      });

  std::vector<double> answer_ms, job_seconds;
  std::map<std::string, std::vector<double>> layer_ms;
  std::vector<JobAnswers> jobs;
  {
    Options untraced_options = run.opt;
    untraced_options.trace = false;
    Run untraced(untraced_options);
    std::vector<double> ignored;
    std::map<std::string, std::vector<double>> ignored_layers;
    const double warm_until =
        now_seconds() + (opt.tiny ? 0.1 : 1.0) * kWarmupSeconds;
    do {
      (void)run_job(untraced, *world, 0, ignored, ignored_layers);
    } while (now_seconds() < warm_until);
  }
  const Counts before = Counts::read();
  const double start = now_seconds();
  do {
    const double t0 = now_seconds();
    jobs.push_back(run_job(run, *world, jobs.size() + 1, answer_ms, layer_ms));
    job_seconds.push_back(now_seconds() - t0);
  } while (now_seconds() < start + opt.seconds);
  const double elapsed = now_seconds() - start;
  check_counts(run, Counts::read() - before, "pipeline window");

  // The offline job's user waits for the whole job, so its latency is the
  // job's wall time. (Single answers are no steadier a median: min-cost
  // rungs cost ~22 ms or ~39 ms by deadline, and the median sits between.)
  MetricSink& m = run.metrics;
  std::vector<double> job_ms;
  for (const double seconds : job_seconds) job_ms.push_back(seconds * 1e3);
  const Percentile p99 = percentile(job_ms, 0.99);
  m.set("latency_p50_ms", median(job_ms), "ms");
  m.set("latency_p99_ms", p99.value, "ms");
  m.set("latency_samples", static_cast<double>(p99.samples), "count");
  m.set("latency_tail_q", p99.q, "frac");
  m.set("throughput_qps", static_cast<double>(answer_ms.size()) / elapsed, "1/s");
  m.set("goodput_frac", 1.0, "frac");
  m.set("pipeline_s", median(job_seconds), "s");
  for (const auto& [name, values] : layer_ms) m.set(name, median(values), "ms");
  run.attempted += answer_ms.size() + jobs.size();  // answers + validations
  check_jobs(run, *world, jobs);

  if (!opt.trace) return;
  // Tracing overhead: two pairs of extra jobs, without and with spans.
  Options untraced_options = run.opt;
  untraced_options.trace = false;
  Run untraced(untraced_options);
  std::vector<double> ratios;
  for (int pair = 0; pair < 2; ++pair) {
    double job_time[2] = {0.0, 0.0};
    for (const bool traced : {false, true}) {
      std::vector<double> ignored;
      std::map<std::string, std::vector<double>> ignored_layers;
      const double t0 = now_seconds();
      (void)run_job(traced ? run : untraced, *world, 0, ignored, ignored_layers);
      job_time[traced] = now_seconds() - t0;
    }
    ratios.push_back(job_time[1] / job_time[0] - 1.0);
  }
  m.set("trace.overhead_frac", median(ratios), "frac");
  cloud::CloudProvider provider(opt.seed);
  probe_sweep_10m(run,
                  core::characterize_capacity(*world->apps.at("galaxy"), provider),
                  galaxy_base_demand(), world->pool.get());
}

// --- self-test ------------------------------------------------------------------

int self_test() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    failures += !ok;
  };
  // Percentile: the highest percentile with >= 10 samples beyond it.
  for (const std::size_t n : {5u, 11u, 100u, 999u, 1000u, 5000u}) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
    const Percentile p = percentile(v, 0.99);
    const std::size_t want_rank =
        n >= 1000 ? static_cast<std::size_t>(std::ceil(0.99 * n))
        : n > 10  ? n - 10
                  : 1;
    char what[96];
    std::snprintf(what, sizeof what, "p99 of %zu samples has rank %zu", n,
                  want_rank);
    expect(p.rank == want_rank && p.value == static_cast<double>(want_rank),
           what);
    if (n > 10) {
      std::snprintf(what, sizeof what,
                    "p99 of %zu samples keeps >= 10 beyond, one more would not",
                    n);
      expect(p.beyond >= 10 && (n - (p.rank + 1) < 10 || p.q >= 0.99), what);
    }
  }
  std::vector<double> ten(10, 1.0);
  expect(median(ten) == 1.0 && median({}) == 0.0, "median of constants/empty");

  // Answer check: identical, a tie broken differently, perturbed answers.
  SweepResult a;
  a.any_feasible = true;
  a.feasible = 42;
  a.total = 100;
  a.min_cost = {7, 3600.0, 1.5};
  a.min_time = {9, 60.0, 9.25};
  a.pareto = {a.min_cost, {8, 600.0, 4.0}, a.min_time};
  expect(compare_answers(a, a) == Verdict::kMatch, "identical answers match");
  SweepResult tie = a;
  tie.pareto[1].config_index = 11;
  expect(compare_answers(tie, a) == Verdict::kTieMismatch,
         "a different config at equal cost/time is a tie mismatch");
  SweepResult cost = a;
  cost.pareto[1].cost = std::nextafter(cost.pareto[1].cost, 1e9);
  expect(compare_answers(cost, a) == Verdict::kMismatch,
         "a frontier cost one ulp off is rejected");
  SweepResult time = a;
  time.min_time.seconds *= 1.0000001;
  expect(compare_answers(time, a) == Verdict::kMismatch,
         "a perturbed min-time is rejected");
  SweepResult count = a;
  count.feasible += 1;
  expect(compare_answers(count, a) == Verdict::kMismatch,
         "a perturbed feasible count is rejected");
  SweepResult shorter = a;
  shorter.pareto.pop_back();
  expect(compare_answers(shorter, a) == Verdict::kMismatch,
         "a missing frontier point is rejected");

  // Self time: parent [0, 10] with children [1, 4] and [3, 6] -> 5 s.
  SpanRecorder spans(true);
  const std::uint64_t parent = spans.open("p", 0.0);
  spans.add("c", 1.0, 4.0, parent);
  spans.add("c", 3.0, 6.0, parent);
  spans.finish(parent, 10.0);
  const auto self = spans.self_times();
  expect(std::abs(self.at("p").seconds - 5.0) < 1e-12 &&
             std::abs(self.at("c").seconds - 6.0) < 1e-12 &&
             self.at("c").spans == 2,
         "self time subtracts the union of child spans");
  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

int run_workload(Options opt) {
  Run run(std::move(opt));
  declare_layer_metrics(run);
  std::printf("machine %s\n", machine_json().c_str());
  std::printf("workload %s seed %llu seconds %g trace %d%s\n",
              run.opt.workload.c_str(),
              static_cast<unsigned long long>(run.opt.seed), run.opt.seconds,
              run.opt.trace ? 1 : 0, run.opt.tiny ? " (tiny)" : "");
  std::fflush(stdout);
  if (run.opt.workload == "plan_index_hot")
    run_index_workload(run);
  else if (run.opt.workload == "plan_sweep_risk")
    run_sweep_risk(run);
  else if (run.opt.workload == "paper_pipeline")
    run_paper_pipeline(run);
  else {
    std::fprintf(stderr, "unknown workload '%s'\n", run.opt.workload.c_str());
    return 2;
  }

  MetricSink& m = run.metrics;
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  m.set("error_frac",
        static_cast<double>(run.failed) /
            static_cast<double>(std::max<std::uint64_t>(run.attempted, 1)),
        "frac");
  m.set("check.answers", static_cast<double>(run.check.answers), "count");
  m.set("check.mismatches", static_cast<double>(run.check.mismatches), "count");
  m.set("check.tie_mismatch", static_cast<double>(run.check.tie_mismatches),
        "count");
  if (run.opt.trace) report_self_times(run);
  m.print(stdout);
  if (!m.all_finite()) run.violation("a metric is NaN or infinite");

  const bool correct = run.check.mismatches == 0 && run.violations.empty() &&
                       run.check.answers > 0;
  const std::string stem = std::string(kOutDir) + "/" + run.opt.workload + "-seed" +
                           std::to_string(run.opt.seed) + "-trace" +
                           (run.opt.trace ? "1" : "0");
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  if (run.opt.trace && !run.spans.write(stem + ".trace.json"))
    std::fprintf(stderr, "warning: cannot write %s.trace.json\n", stem.c_str());
  const std::string result =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(run.attempted, 1)) +
      ", \"failed\": " + std::to_string(run.failed) +
      ", \"machine\": " + machine_json() + ", \"metrics\": " + m.json() + "}";
  std::ofstream(stem + ".json") << result << "\n";
  std::printf("PERFBENCH_RESULT %s\n", result.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::now_seconds();  // pin the clock's epoch at start-up
  perfbench::Options opt;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") opt.workload = value();
    else if (arg == "--seed") opt.seed = std::stoull(value());
    else if (arg == "--seconds") opt.seconds = std::stod(value());
    else if (arg == "--trace") opt.trace = value() != "0";
    else if (arg == "--tiny") opt.tiny = value() != "0";
    else if (arg == "--self-test") self_test = true;
    else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (self_test) return perfbench::self_test();
  if (opt.workload.empty() || !(opt.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> | --self-test\n");
    return 2;
  }
  return perfbench::run_workload(opt);
}
