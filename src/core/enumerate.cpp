#include "core/enumerate.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <string>

#include "cloud/instance_type.hpp"
#include "core/frontier_index.hpp"
#include "core/query.hpp"
#include "core/simd.hpp"
#include "core/sweep_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "util/stopwatch.hpp"

namespace celia::core {

namespace {

/// Survivors a block appends before it re-filters its Pareto candidates;
/// the interval grows with the frontier so filtering stays O(log F)
/// amortized per surviving point.
constexpr std::size_t kMinRefilter = 256;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct PartialResult {
  std::uint64_t feasible = 0;
  bool any = false;
  CostTimePoint min_cost;
  CostTimePoint min_time;
  // Pareto candidates. pareto[0, frontier_size) is the latest
  // pareto_filter output (ascending cost, strictly descending seconds) and
  // doubles as the pruning frontier; the points after it survived the
  // dominance check against that frontier. Starts from the seed frontier.
  std::vector<CostTimePoint> pareto;
  std::size_t frontier_size = 0;
  // The last frontier point that dominated a candidate: consecutive
  // configurations are usually dominated by the same point, so it is
  // tested first. Any feasible point is a valid witness; the initial one
  // dominates nothing.
  CostTimePoint witness{0, kInf, kInf};
  // Scatter sample: every sample_stride-th feasible point of this walk
  // (0 = no sampling). Only a walk whose local feasible ranks are the
  // global ones (block 0) samples here; see the second pass in sweep_impl.
  std::uint64_t sample_stride = 0;
  std::vector<CostTimePoint> samples;

  /// True when a frontier point strictly dominates `point`. The last
  /// frontier point with cost <= point.cost has the least seconds of all
  /// such points, so it is the only one that needs testing. Exact: a
  /// strictly dominated point is never in the frontier of any set holding
  /// its dominator, and dropping it changes nothing else pareto_filter
  /// keeps. Points equal in (cost, seconds) are never dominated.
  bool dominated(const CostTimePoint& point) {
    if (dominates(witness, point)) return true;
    const auto first = pareto.begin();
    const auto it = std::upper_bound(
        first, first + static_cast<std::ptrdiff_t>(frontier_size), point.cost,
        [](double cost, const CostTimePoint& f) { return cost < f.cost; });
    if (it == first || !dominates(*(it - 1), point)) return false;
    witness = *(it - 1);
    return true;
  }

  void refilter() {
    pareto = pareto_filter(std::move(pareto));
    frontier_size = pareto.size();
  }

  void note_feasible(const CostTimePoint& point, const SweepOptions& options) {
    ++feasible;
    if (!any) {
      min_cost = min_time = point;
      any = true;
    } else {
      // Points arrive in index order, so a strict (cost, seconds) win is
      // the cheaper()/faster() order without the index comparison, which
      // made this per-point path ~17% slower.
      if (point.cost < min_cost.cost ||
          (point.cost == min_cost.cost && point.seconds < min_cost.seconds))
        min_cost = point;
      if (point.seconds < min_time.seconds ||
          (point.seconds == min_time.seconds && point.cost < min_time.cost))
        min_time = point;
    }
    if (options.collect_pareto && !dominated(point)) {
      pareto.push_back(point);
      if (pareto.size() - frontier_size >=
          std::max(kMinRefilter, frontier_size))
        refilter();
    }
    if (sample_stride > 0 && feasible % sample_stride == 0)
      samples.push_back(point);
  }
};

/// Per-block scratch for the batched classification kernels: seconds/cost
/// output lanes plus the feasibility bitmask (one bit per lane element;
/// kBatch is a multiple of 64 so the mask is a whole number of words).
struct ClassifyScratch {
  std::array<double, SweepPlan::kBatch> seconds;
  std::array<double, SweepPlan::kBatch> cost;
  std::array<std::uint64_t, SweepPlan::kBatch / 64> mask;
};

/// Visit the set bits of `mask` in ascending position order. Feasible hits
/// must be consumed in index order: the sample stride observes the arrival
/// sequence (every other reduction ranks with cheaper/faster).
template <typename OnFeasible>
void for_each_set_bit(const std::uint64_t* mask, std::size_t n,
                      OnFeasible&& fn) {
  for (std::size_t w = 0; w < (n + 63) / 64; ++w) {
    std::uint64_t bits = mask[w];
    while (bits != 0) {
      fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
}

std::vector<double> capacity_rates(const ResourceCapacity& capacity) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < capacity.num_types(); ++i)
    rates.push_back(capacity.rate(i));
  return rates;
}

/// The FrontierIndex answers only the deterministic, unsampled, SCALAR
/// form of the query; everything else takes the sweep path. (The staircase
/// is demand-invariant only in 1-D: with several dimensions the set of
/// frontier configurations depends on the demand mix's direction.)
bool index_can_answer(const Constraints& constraints,
                      const SweepOptions& options,
                      std::size_t num_dimensions) {
  const bool risk_aware =
      constraints.confidence_z > 0 && constraints.rate_sigma > 0;
  return !risk_aware && options.sample_stride == 0 && num_dimensions == 1;
}

struct RouteCounters {
  obs::Counter& sweep = obs::counter(
      "celia_planner_route_sweep_total",
      "Planner queries answered by the full sweep (index never requested)");
  obs::Counter& index = obs::counter(
      "celia_planner_route_index_total",
      "Planner queries answered by a caller-provided FrontierIndex");
  obs::Counter& fallback = obs::counter(
      "celia_planner_route_fallback_total",
      "Planner queries that requested an index but were ineligible "
      "(risk-aware, sampled, or multi-dimensional) and fell back to the "
      "full sweep");
};

RouteCounters& route_counters() {
  static RouteCounters counters;
  return counters;
}

}  // namespace

void validate_query(double demand, const Constraints& constraints) {
  if (!std::isfinite(demand) || demand <= 0)
    throw std::invalid_argument(
        "planner query: demand must be finite and positive");
  if (std::isnan(constraints.deadline_seconds) ||
      constraints.deadline_seconds < 0)
    throw std::invalid_argument(
        "planner query: deadline must be non-negative (NaN rejected)");
  if (std::isnan(constraints.budget_dollars) || constraints.budget_dollars < 0)
    throw std::invalid_argument(
        "planner query: budget must be non-negative (NaN rejected)");
  if (!std::isfinite(constraints.confidence_z) || constraints.confidence_z < 0)
    throw std::invalid_argument(
        "planner query: confidence_z must be finite and non-negative");
  if (!std::isfinite(constraints.rate_sigma) || constraints.rate_sigma < 0)
    throw std::invalid_argument(
        "planner query: rate_sigma must be finite and non-negative");
}

void validate_query(const apps::DemandVector& demand,
                    const Constraints& constraints,
                    const apps::DemandDimensions* schema) {
  if (demand.size() == 0)
    throw std::invalid_argument(
        "planner query: demand vector must have at least one dimension");
  if (schema != nullptr && schema->size() != demand.size())
    throw std::invalid_argument(
        "planner query: demand vector has " + std::to_string(demand.size()) +
        " dimensions but the schema [" + schema->describe() + "] names " +
        std::to_string(schema->size()));
  validate_query(demand.values[0], constraints);
  for (std::size_t d = 1; d < demand.size(); ++d)
    if (!std::isfinite(demand.values[d]) || demand.values[d] < 0)
      throw std::invalid_argument(
          "planner query: demand dimension " + std::to_string(d) +
          (schema != nullptr ? " ('" + schema->name(d) + "')" : "") +
          " must be finite and non-negative");
  if (demand.size() > 1 && constraints.confidence_z > 0 &&
      constraints.rate_sigma > 0)
    throw std::invalid_argument(
        "planner query: risk-aware selection (confidence_z with rate_sigma) "
        "models a spread on the scalar instruction rate and is not "
        "supported for multi-dimensional demand" +
        (schema != nullptr
             ? " over the schema [" + schema->describe() + "]"
             : " (" + std::to_string(demand.size()) + " dimensions)"));
}

std::vector<double> ec2_hourly_costs() {
  std::vector<double> hourly;
  for (const auto& type : cloud::ec2_catalog())
    hourly.push_back(type.cost_per_hour);
  return hourly;
}

namespace {

/// Shared implementation behind the span- and catalog-based sweep entry
/// points; `catalog` is null for the span path (hourly costs stand alone)
/// and non-null when the caller planned against a first-class catalog, in
/// which case a Prefer index must not be pinned to another catalog.
SweepResult sweep_impl(const ConfigurationSpace& space,
                       const ResourceCapacity& capacity,
                       std::span<const double> hourly_costs,
                       const cloud::Catalog* catalog, const Query& query) {
  detail::validate_model_widths(space, capacity, hourly_costs, "sweep");
  detail::validate_demand_dimensions(capacity, query.num_dimensions(),
                                     "sweep");
  const double demand = query.demand();
  const Constraints& constraints = query.constraints();
  const SweepOptions& options = query.options();
  const IndexPolicy& policy = options.index_policy;
  const bool multi = query.num_dimensions() > 1;

  QueryRoute route = QueryRoute::kSweep;
  if (policy.mode == IndexPolicy::Mode::kPrefer) {
    if (policy.index == nullptr)
      throw std::invalid_argument(
          "sweep: IndexPolicy::Prefer requires a non-null FrontierIndex");
    if (index_can_answer(constraints, options, query.num_dimensions())) {
      if (catalog && policy.index->catalog_fingerprint() != 0 &&
          policy.index->catalog_fingerprint() != catalog->fingerprint())
        throw std::invalid_argument(
            "sweep: FrontierIndex is pinned to a different catalog than '" +
            catalog->name() + "'");
      if (!policy.index->matches(space, capacity, hourly_costs))
        throw std::invalid_argument(
            "sweep: FrontierIndex was built for a different model");
      route_counters().index.add(1);
      SweepResult result = policy.index->query(query);
      result.route = QueryRoute::kIndex;
      return result;
    }
    // Index requested but this query needs the sweep (risk-aware,
    // sampled, or multi-dimensional): fall back, visibly.
    route_counters().fallback.add(1);
    route = QueryRoute::kSweepFallback;
  } else {
    route_counters().sweep.add(1);
  }

  static obs::Counter& sweep_queries = obs::counter(
      "celia_sweep_queries_total", "Full-sweep planner query executions");
  static obs::Counter& configs_walked = obs::counter(
      "celia_sweep_configurations_total",
      "Configurations walked by sweep/for_each_configuration");
  static obs::Counter& feasible_found =
      obs::counter("celia_sweep_feasible_total",
                   "Feasible configurations found by full sweeps");
  static obs::Counter& blocks_walked =
      obs::counter("celia_sweep_blocks_total",
                   "Enumeration blocks executed by worker threads");
  static obs::Histogram& block_seconds = obs::histogram(
      "celia_sweep_block_seconds", {},
      "Wall time of one enumeration block on one worker thread");
  static obs::Histogram& sweep_seconds = obs::histogram(
      "celia_sweep_seconds", {}, "End-to-end full-sweep wall time");
  static obs::Counter& multidim_sweeps = obs::counter(
      "celia_sweep_multidim_queries_total",
      "Full-sweep executions of multi-dimensional (vector-demand) queries");
  sweep_queries.add(1);
  if (multi) multidim_sweeps.add(1);
  util::Stopwatch sweep_timer;
  obs::Span sweep_span("sweep", "planner");

  const std::vector<double> rates = capacity_rates(capacity);

  // Full-instance rate rows for the multi-dimensional walk ([dim][type]);
  // the scalar path builds its 1-D plan from `rates`.
  const apps::DemandVector& demand_vec = query.demand_vector();
  std::vector<std::vector<double>> rate_rows;
  if (multi) {
    rate_rows.resize(capacity.num_dimensions());
    for (std::size_t d = 0; d < capacity.num_dimensions(); ++d) {
      rate_rows[d].reserve(capacity.num_types());
      for (std::size_t i = 0; i < capacity.num_types(); ++i)
        rate_rows[d].push_back(capacity.rate(i, d));
    }
  }

  // Per-type variance contribution for risk-aware selection: adding one
  // instance of type i adds (W_i x sigma)^2 to the capacity variance.
  const bool risk_aware =
      constraints.confidence_z > 0 && constraints.rate_sigma > 0;
  std::vector<double> var_terms(rates.size(), 0.0);
  if (risk_aware) {
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const double term = rates[i] * constraints.rate_sigma;
      var_terms[i] = term * term;
    }
  }
  const double z = constraints.confidence_z;

  // Build the SoA plan once per sweep; each block walks its own range over
  // it and classifies whole batches with the runtime-dispatched kernels.
  const SweepPlan plan =
      multi ? SweepPlan(space, rate_rows, hourly_costs)
            : SweepPlan(space, rates, hourly_costs, var_terms);
  const simd::Kernels& kernels = simd::active_kernels();
  simd::ClassifyParams params;
  params.demand = demand;
  params.deadline = constraints.deadline_seconds;
  params.budget = constraints.budget_dollars;
  params.z = z;

  // Dimensions with zero demand never bind the bottleneck max; list the
  // ones that do once, outside the walk.
  std::vector<std::uint32_t> active_dims;
  if (multi) {
    for (std::size_t d = 0; d < demand_vec.size(); ++d)
      if (demand_vec.values[d] > 0)
        active_dims.push_back(static_cast<std::uint32_t>(d));
  }

  // One classification entry for the walk's batches and the seed sample.
  // Out of line on purpose: it runs once per batch, and inlined into the
  // walk's consumer it made the feasibility-only sweep ~8% slower (GCC
  // -O3 on a 4-vCPU Xeon).
  const auto classify = [&](const SweepPlan::Lanes& lanes, std::size_t n,
                            ClassifyScratch& scratch)
      __attribute__((noinline)) -> std::size_t {
    if (multi) {
      // Bottleneck feasibility: T = max_d D_d / U_d (generalized Eq. 2)
      // over the active dimensions.
      return kernels.classify_multi(
          lanes.u_rows, SweepPlan::kBatch, active_dims.data(),
          active_dims.size(), demand_vec.values.data(), lanes.cu, n,
          constraints.deadline_seconds, constraints.budget_dollars,
          scratch.seconds.data(), scratch.cost.data(), scratch.mask.data());
    }
    if (risk_aware) {
      return kernels.classify_risk(lanes.u(), lanes.v, lanes.cu, n, params,
                                   scratch.seconds.data(), scratch.cost.data(),
                                   scratch.mask.data());
    }
    return kernels.classify(lanes.u(), lanes.cu, n, params,
                            scratch.seconds.data(), scratch.cost.data(),
                            scratch.mask.data());
  };

  // Seed frontier: the Pareto frontier of a stride sample's feasible
  // points, so every block prunes from its first point on. The sample is
  // valued with the walk's canonical fold and classified by the same
  // kernel, so each seed is bit for bit the point the walk produces for
  // that configuration — a real member of the feasible set.
  std::vector<CostTimePoint> seed;
  if (options.collect_pareto && space.size() > 0) {
    const std::uint64_t count =
        std::min<std::uint64_t>(space.size(), SweepPlan::kBatch);
    const std::uint64_t stride = space.size() / count;
    const std::size_t dims = multi ? rate_rows.size() : 1;
    std::vector<double> u_rows(dims * SweepPlan::kBatch);
    std::vector<double> cu(SweepPlan::kBatch), v(SweepPlan::kBatch);
    std::vector<int> digits(space.num_types());
    for (std::uint64_t j = 0; j < count; ++j) {
      space.decode_into(j * stride, digits);
      for (std::size_t d = 0; d < dims; ++d)
        u_rows[d * SweepPlan::kBatch + j] =
            SweepPlan::fold_value(digits, multi ? rate_rows[d] : rates);
      cu[j] = SweepPlan::fold_value(digits, hourly_costs);
      v[j] = SweepPlan::fold_value(digits, var_terms);
    }
    SweepPlan::Lanes lanes;
    lanes.u_rows = u_rows.data();
    lanes.cu = cu.data();
    lanes.v = v.data();
    auto scratch = std::make_unique<ClassifyScratch>();
    if (classify(lanes, count, *scratch) > 0) {
      for_each_set_bit(scratch->mask.data(), count, [&](std::size_t j) {
        seed.push_back({j * stride, scratch->seconds[j], scratch->cost[j]});
      });
    }
    seed = pareto_filter(std::move(seed));
  }

  // One result slot per block, merged in block order once every block is
  // done: the merged result never depends on the order blocks finish in.
  parallel::ThreadPool& pool =
      options.pool ? *options.pool : parallel::default_pool();
  const auto blocks =
      parallel::split_range(0, space.size(), pool.num_threads());
  std::vector<PartialResult> partials(blocks.size());

  parallel::ForOptions for_options;
  for_options.pool = &pool;
  parallel::parallel_for(
      0, blocks.size(),
      [&](std::uint64_t b) {
        const parallel::BlockedRange range = blocks[b];
        util::Stopwatch block_timer;
        PartialResult partial;  // block-local: no false sharing
        partial.pareto = seed;
        partial.frontier_size = seed.size();
        partial.sample_stride = b == 0 ? options.sample_stride : 0;
        auto scratch = std::make_unique<ClassifyScratch>();
        plan.walk(range, [&](std::uint64_t first, std::size_t n,
                             const SweepPlan::Lanes& lanes) {
          if (classify(lanes, n, *scratch) == 0) return;
          for_each_set_bit(scratch->mask.data(), n, [&](std::size_t j) {
            partial.note_feasible(
                {first + j, scratch->seconds[j], scratch->cost[j]}, options);
          });
        });
        if (options.collect_pareto) partial.refilter();

        // Block-granularity instrumentation: the inner walk stays
        // untouched, so metrics cost O(blocks), not O(configurations).
        block_seconds.record(block_timer.elapsed_seconds());
        blocks_walked.add(1);
        configs_walked.add(range.end - range.begin);
        feasible_found.add(partial.feasible);
        partials[b] = std::move(partial);
      },
      for_options);

  // The scatter sample keeps the feasible point of 1-based GLOBAL rank r
  // when r % sample_stride == 0, so it does not depend on the block
  // partition. Block 0 sampled during its walk; once every block's
  // feasible count is known, the other blocks re-classify their range
  // starting from their global rank offset. Unsampled sweeps skip this.
  if (options.sample_stride > 0 && blocks.size() > 1) {
    const std::uint64_t stride = options.sample_stride;
    std::vector<std::uint64_t> offsets(blocks.size(), 0);
    for (std::size_t b = 1; b < blocks.size(); ++b)
      offsets[b] = offsets[b - 1] + partials[b - 1].feasible;
    parallel::parallel_for(
        1, blocks.size(),
        [&](std::uint64_t b) {
          std::uint64_t rank = offsets[b];
          std::vector<CostTimePoint>& samples = partials[b].samples;
          auto scratch = std::make_unique<ClassifyScratch>();
          plan.walk(blocks[b], [&](std::uint64_t first, std::size_t n,
                                   const SweepPlan::Lanes& lanes) {
            const std::size_t hits = classify(lanes, n, *scratch);
            if (rank % stride + hits < stride) {  // no multiple in batch
              rank += hits;
              return;
            }
            for_each_set_bit(scratch->mask.data(), n, [&](std::size_t j) {
              if (++rank % stride == 0)
                samples.push_back(
                    {first + j, scratch->seconds[j], scratch->cost[j]});
            });
          });
        },
        for_options);
  }

  SweepResult result;
  result.total = space.size();
  result.route = route;
  std::vector<CostTimePoint> merged_pareto;
  for (const PartialResult& partial : partials) {
    result.feasible += partial.feasible;
    if (partial.any) {
      if (!result.any_feasible) {
        result.min_cost = partial.min_cost;
        result.min_time = partial.min_time;
        result.any_feasible = true;
      } else {
        if (cheaper(partial.min_cost, result.min_cost))
          result.min_cost = partial.min_cost;
        if (faster(partial.min_time, result.min_time))
          result.min_time = partial.min_time;
      }
    }
    merged_pareto.insert(merged_pareto.end(), partial.pareto.begin(),
                         partial.pareto.end());
    result.feasible_points.insert(result.feasible_points.end(),
                                  partial.samples.begin(),
                                  partial.samples.end());
  }

  if (options.collect_pareto)
    result.pareto = pareto_filter(std::move(merged_pareto));
  sweep_seconds.record(sweep_timer.elapsed_seconds());
  return result;
}

}  // namespace

SweepResult sweep(const ConfigurationSpace& space,
                  const ResourceCapacity& capacity,
                  std::span<const double> hourly_costs, const Query& query) {
  return sweep_impl(space, capacity, hourly_costs, nullptr, query);
}

SweepResult sweep(const ConfigurationSpace& space,
                  const ResourceCapacity& capacity,
                  const cloud::Catalog& catalog, const Query& query) {
  if (!capacity.compatible_with(catalog))
    throw std::invalid_argument(
        "sweep: capacity was characterized against a structurally different "
        "catalog than '" + catalog.name() + "'");
  return sweep_impl(space, capacity, catalog.hourly_costs(), &catalog, query);
}

SweepResult sweep(const ConfigurationSpace& space,
                  const ResourceCapacity& capacity, const Query& query) {
  const std::vector<double> hourly = ec2_hourly_costs();
  return sweep(space, capacity, hourly, query);
}

SweepResult sweep(const ConfigurationSpace& space,
                  const ResourceCapacity& capacity,
                  std::span<const double> hourly_costs, double demand,
                  const Constraints& constraints, SweepOptions options) {
  return sweep(space, capacity, hourly_costs,
               Query::make(demand, constraints, options));
}

SweepResult sweep(const ConfigurationSpace& space,
                  const ResourceCapacity& capacity,
                  const cloud::Catalog& catalog, double demand,
                  const Constraints& constraints, SweepOptions options) {
  return sweep(space, capacity, catalog,
               Query::make(demand, constraints, options));
}

SweepResult sweep(const ConfigurationSpace& space,
                  const ResourceCapacity& capacity, double demand,
                  const Constraints& constraints, SweepOptions options) {
  const std::vector<double> hourly = ec2_hourly_costs();
  return sweep(space, capacity, hourly,
               Query::make(demand, constraints, options));
}

namespace detail {

void validate_model_widths(const ConfigurationSpace& space,
                           const ResourceCapacity& capacity,
                           std::span<const double> hourly_costs,
                           const char* who) {
  if (space.num_types() != capacity.num_types())
    throw std::invalid_argument(std::string(who) +
                                ": space/capacity width mismatch");
  if (hourly_costs.size() != capacity.num_types())
    throw std::invalid_argument(std::string(who) +
                                ": hourly cost width mismatch");
}

void validate_demand_dimensions(const ResourceCapacity& capacity,
                                std::size_t query_dimensions,
                                const char* who) {
  if (capacity.num_dimensions() != query_dimensions)
    throw std::invalid_argument(
        std::string(who) + ": demand has " +
        std::to_string(query_dimensions) + " dimension(s) but the capacity "
        "was characterized for " +
        std::to_string(capacity.num_dimensions()) +
        " ('" + capacity.dimensions().name(0) +
        "' ...) — schema mismatch, not a degenerate case");
}

}  // namespace detail

void for_each_configuration(
    const ConfigurationSpace& space, const ResourceCapacity& capacity,
    const std::function<void(std::uint64_t, double, double)>& visit,
    parallel::ThreadPool* pool) {
  const std::vector<double> hourly = ec2_hourly_costs();
  for_each_configuration(space, capacity, hourly, visit, pool);
}

}  // namespace celia::core
