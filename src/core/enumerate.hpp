#pragma once
// Parallel exhaustive sweep of the configuration space — the paper's
// Algorithm 1 (Resource Configuration Selection) at scale.
//
// The sweep walks all S configurations (10,077,695 for the default EC2
// space) row by row: the innermost mixed-radix digit becomes a tight
// inner loop over each row, while the outer digits advance with an
// odometer carry between rows. Row bases are maintained as suffix sums
// S[i] = sum_{t>=i} d_t * r_t (a fixed right-to-left fold), so a carry at
// level i costs one multiply-add per channel instead of re-deriving the
// whole dot product. Every value is a pure function of the digit tuple —
// independent of how the index range is partitioned across threads.
// Per-block partial results (feasible count, running min-cost/min-time
// points, local Pareto candidates, sampled scatter points) are merged in
// block order at the end — the classic map-reduce shape of an HPC
// parameter sweep. Scatter samples are ranked over the global feasible
// order, so blocks after the first take them in a second pass once every
// block's feasible count is known. Each block drops a point that its
// Pareto frontier so far strictly dominates before buffering it, and
// every tie resolves to the lowest config_index, so the answer is
// bit-identical for any pool size (see DESIGN.md §13, "Exact
// prune-before-buffer").
//
// Deterministic queries (confidence_z == 0, no sampling) can skip the
// sweep entirely via the demand-invariant FrontierIndex — see
// core/frontier_index.hpp and SweepOptions::index_policy. The route the
// planner actually took (sweep, index, or an observable fallback) is
// reported in SweepResult::route and counted in the obs metrics registry.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/capacity.hpp"
#include "core/configuration.hpp"
#include "core/pareto.hpp"
#include "core/sweep_plan.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "util/stopwatch.hpp"

namespace celia::core {

class FrontierIndex;
class Query;

/// Deadline/budget constraints (paper: T < T' and C < C', strict).
///
/// Setting `confidence_z` > 0 enables RISK-AWARE selection (an extension
/// beyond the paper's deterministic Eq. 2): each instance's delivered rate
/// is treated as W_i (1 + eps) with eps ~ (0, rate_sigma^2) independent per
/// instance, so a configuration's capacity has standard deviation
/// sqrt(sum_i m_i (W_i rate_sigma)^2). Feasibility and cost are then
/// evaluated at the pessimistic capacity U - z * sigma_U: z = 1.645 keeps
/// the deadline with ~95 % one-sided confidence under the normal
/// approximation.
struct Constraints {
  double deadline_seconds = std::numeric_limits<double>::infinity();
  double budget_dollars = std::numeric_limits<double>::infinity();
  double confidence_z = 0.0;  // 0 = the paper's deterministic model
  double rate_sigma = 0.0;    // relative per-instance rate spread
};

/// Shared entry-point validation: every planner query route — sweep(),
/// FrontierIndex::query(), Celia::min_cost_configuration — funnels
/// through this so they reject malformed input identically.
/// Throws std::invalid_argument when demand is non-positive or non-finite,
/// when the deadline or budget is NaN or negative (infinity = "no
/// constraint" and 0 are both allowed: 0 simply admits nothing), or when
/// confidence_z / rate_sigma is negative or non-finite.
void validate_query(double demand, const Constraints& constraints);

/// Vector-demand form: dimension 0 (instructions) must be finite and
/// positive exactly as the scalar rule above; further dimensions must be
/// finite and NON-negative (zero demand in a dimension simply never
/// binds — e.g. a monolithic database moves no network bytes). Risk-aware
/// selection (confidence_z > 0 with rate_sigma > 0) models a spread on the
/// scalar instruction rate only and is rejected for multi-dimensional
/// queries. When `schema` is given, the vector's width must match it and
/// every rejection names the offending dimension / the schema's dimension
/// names instead of bare indices.
void validate_query(const apps::DemandVector& demand,
                    const Constraints& constraints,
                    const apps::DemandDimensions* schema = nullptr);

/// How the planner may use the demand-invariant FrontierIndex.
///
/// Only deterministic SCALAR queries are index-eligible (confidence_z ==
/// 0, sample_stride == 0, one demand dimension — the staircase is
/// demand-invariant only in 1-D; with several dimensions feasibility
/// depends on the demand mix's direction, not just its magnitude). When
/// Prefer is requested for an ineligible query the planner runs the full
/// sweep instead — and that fallback is OBSERVABLE:
/// SweepResult::route == kSweepFallback and the
/// celia_planner_route_fallback_total counter is bumped, never silent.
struct IndexPolicy {
  enum class Mode {
    kNever,   // always run the full sweep
    kPrefer,  // answer from the given prebuilt index when eligible
  };

  Mode mode = Mode::kNever;
  /// kPrefer only: must be non-null and built for the same (space,
  /// capacity, hourly costs) — sweep() throws otherwise.
  const FrontierIndex* index = nullptr;

  static IndexPolicy Never() { return {}; }
  static IndexPolicy Prefer(const FrontierIndex* prebuilt) {
    return {Mode::kPrefer, prebuilt};
  }
};

/// The path a planner query actually took (recorded in SweepResult::route
/// and mirrored by the celia_planner_route_*_total counters).
enum class QueryRoute {
  kSweep,          // full sweep, index never requested
  kIndex,          // answered by a caller-provided FrontierIndex
  kSweepFallback,  // index requested but query ineligible -> full sweep
  kDegradedSweep,  // PlannerEngine deadline too tight to build an index ->
                   // answered by a fresh full sweep instead
  kTruncatedSweep,  // even the sweep didn't fit the deadline -> best-effort
                    // sweep of a TRUNCATED space (result is a lower-quality
                    // but valid answer over the shrunken space)
};

std::string_view query_route_name(QueryRoute route);

struct SweepOptions {
  /// Collect every `sample_stride`-th feasible point into
  /// SweepResult::feasible_points (for scatter plots): the points of
  /// 1-based feasible rank r, in configuration-index order, with
  /// r % sample_stride == 0 — the same for any pool size. 0 disables.
  std::uint64_t sample_stride = 0;
  /// Compute the exact Pareto frontier of all feasible points.
  bool collect_pareto = true;
  /// Pool to run on; nullptr = parallel::default_pool().
  parallel::ThreadPool* pool = nullptr;
  /// Whether (and which) FrontierIndex may answer instead of sweeping.
  IndexPolicy index_policy = {};
};

struct SweepResult {
  std::uint64_t total = 0;      // configurations evaluated (== space size)
  std::uint64_t feasible = 0;   // satisfying both constraints
  bool any_feasible = false;
  CostTimePoint min_cost;       // cheapest feasible (ties: faster, then
                                // lowest config_index wins)
  CostTimePoint min_time;       // fastest feasible (ties: cheaper, then
                                // lowest config_index wins)
  QueryRoute route = QueryRoute::kSweep;       // path actually taken
  std::vector<CostTimePoint> pareto;           // ascending cost
  std::vector<CostTimePoint> feasible_points;  // sampled scatter
};

namespace detail {

/// Shared width validation for every enumeration entry point (sweep, both
/// for_each_configuration overloads, FrontierIndex::build): throws
/// std::invalid_argument naming `who` when the space, capacity or hourly
/// cost vector disagree on the number of instance types.
void validate_model_widths(const ConfigurationSpace& space,
                           const ResourceCapacity& capacity,
                           std::span<const double> hourly_costs,
                           const char* who);

/// Demand/capacity dimensionality agreement: a query must be evaluated
/// against a capacity of the same width (a scalar query against a 4-D OLTP
/// capacity — or a 4-D query against a scalar capacity — is a schema
/// mismatch, not a degenerate case). Throws std::invalid_argument naming
/// `who` and both widths.
void validate_demand_dimensions(const ResourceCapacity& capacity,
                                std::size_t query_dimensions,
                                const char* who);

}  // namespace detail

/// Evaluate a validated Query against every configuration; Algorithm 1
/// plus the Pareto filter of §III-D. This is THE planner implementation —
/// the (demand, constraints) overloads below and every higher-level entry
/// point (Celia, analysis) forward here through Query::make, so input
/// validation runs exactly once per query. `hourly_costs[i]` is the
/// per-hour price of one instance of type i.
SweepResult sweep(const ConfigurationSpace& space,
                  const ResourceCapacity& capacity,
                  std::span<const double> hourly_costs, const Query& query);

/// Catalog-aware planner entry: prices come from `catalog.hourly_costs()`,
/// and a Prefer index must be pinned to this catalog (or unpinned), so
/// queries against two catalogs can never be answered from each other's
/// staircase. Throws std::invalid_argument when `capacity` was
/// characterized against a structurally different catalog, or when a
/// Prefer index is pinned to a different catalog.
SweepResult sweep(const ConfigurationSpace& space,
                  const ResourceCapacity& capacity,
                  const cloud::Catalog& catalog, const Query& query);

/// Convenience overload pricing with the EC2 catalog (paper Table III).
SweepResult sweep(const ConfigurationSpace& space,
                  const ResourceCapacity& capacity, const Query& query);

/// Forwarding overload: validates via Query::make and runs the Query.
SweepResult sweep(const ConfigurationSpace& space,
                  const ResourceCapacity& capacity,
                  std::span<const double> hourly_costs, double demand,
                  const Constraints& constraints, SweepOptions options = {});

/// Catalog-aware forwarding overload (see the Query overload above).
SweepResult sweep(const ConfigurationSpace& space,
                  const ResourceCapacity& capacity,
                  const cloud::Catalog& catalog, double demand,
                  const Constraints& constraints, SweepOptions options = {});

/// Convenience overload pricing with the EC2 catalog (paper Table III).
SweepResult sweep(const ConfigurationSpace& space,
                  const ResourceCapacity& capacity, double demand,
                  const Constraints& constraints, SweepOptions options = {});

/// Hourly costs of the EC2 catalog (paper Table III), indexed by type.
std::vector<double> ec2_hourly_costs();

/// Streaming variant: `visit(index, capacity_U, hourly_cost)` is called for
/// every configuration from worker threads (must be thread-safe). Useful
/// for custom reductions. The visitor is invoked directly (no type
/// erasure), so it inlines into the enumeration loop.
template <typename Visit>
void for_each_configuration(const ConfigurationSpace& space,
                            const ResourceCapacity& capacity,
                            std::span<const double> hourly_costs,
                            Visit&& visit,
                            parallel::ThreadPool* pool = nullptr) {
  detail::validate_model_widths(space, capacity, hourly_costs,
                                "for_each_configuration");
  // One registry lookup per process (static locals), relaxed adds per
  // BLOCK after that — the inner walk stays uninstrumented.
  static obs::Counter& configs_walked = obs::counter(
      "celia_sweep_configurations_total",
      "Configurations walked by sweep/for_each_configuration");
  static obs::Counter& blocks_walked =
      obs::counter("celia_sweep_blocks_total",
                   "Enumeration blocks executed by worker threads");
  static obs::Histogram& block_seconds = obs::histogram(
      "celia_sweep_block_seconds", {},
      "Wall time of one enumeration block on one worker thread");
  std::vector<double> rates;
  rates.reserve(capacity.num_types());
  for (std::size_t i = 0; i < capacity.num_types(); ++i)
    rates.push_back(capacity.rate(i));
  const SweepPlan plan(space, rates, hourly_costs);
  parallel::ForOptions for_options;
  for_options.pool = pool;
  parallel::parallel_for_blocked(
      0, space.size(),
      [&](parallel::BlockedRange range) {
        util::Stopwatch block_timer;
        plan.walk(range, [&visit](std::uint64_t first, std::size_t n,
                                  const SweepPlan::Lanes& lanes) {
          for (std::size_t j = 0; j < n; ++j)
            visit(first + j, lanes.u()[j], lanes.cu[j]);
        });
        block_seconds.record(block_timer.elapsed_seconds());
        blocks_walked.add(1);
        configs_walked.add(range.end - range.begin);
      },
      for_options);
}

/// Type-erased overload pricing with the EC2 catalog (paper Table III).
void for_each_configuration(
    const ConfigurationSpace& space, const ResourceCapacity& capacity,
    const std::function<void(std::uint64_t, double, double)>& visit,
    parallel::ThreadPool* pool = nullptr);

}  // namespace celia::core
