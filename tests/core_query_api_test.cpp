// Tests for the unified Query API: Query::make validates once and the
// Query-taking sweep() is bit-identical to the legacy (demand,
// constraints) overloads; SweepResult::route reports the path taken; the
// celia_planner_route_* counters account for every query exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "cloud/catalog.hpp"
#include "cloud/instance_type.hpp"
#include "core/enumerate.hpp"
#include "core/frontier_index.hpp"
#include "core/query.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace celia::core;
namespace obs = celia::obs;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct RandomModel {
  ConfigurationSpace space;
  ResourceCapacity capacity;
  std::vector<double> hourly;
};

RandomModel random_model(celia::util::Xoshiro256& rng) {
  std::vector<int> max_counts(celia::cloud::catalog_size());
  bool any = false;
  for (auto& count : max_counts) {
    count = static_cast<int>(rng.bounded(4));
    any = any || count > 0;
  }
  if (!any) max_counts[rng.bounded(max_counts.size())] = 2;

  std::vector<double> per_vcpu(celia::cloud::catalog_size());
  for (auto& rate : per_vcpu) rate = rng.uniform(1e8, 2e9);

  std::vector<double> hourly(celia::cloud::catalog_size());
  for (auto& price : hourly) price = rng.uniform(0.05, 1.0);

  return {ConfigurationSpace(max_counts),
          ResourceCapacity(per_vcpu, celia::cloud::Catalog::ec2_table3()),
          std::move(hourly)};
}

void expect_same_result(const SweepResult& expected, const SweepResult& got,
                        const char* context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(expected.total, got.total);
  EXPECT_EQ(expected.feasible, got.feasible);
  EXPECT_EQ(expected.any_feasible, got.any_feasible);
  if (expected.any_feasible && got.any_feasible) {
    EXPECT_EQ(expected.min_cost.config_index, got.min_cost.config_index);
    EXPECT_EQ(expected.min_cost.seconds, got.min_cost.seconds);
    EXPECT_EQ(expected.min_cost.cost, got.min_cost.cost);
    EXPECT_EQ(expected.min_time.config_index, got.min_time.config_index);
    EXPECT_EQ(expected.min_time.seconds, got.min_time.seconds);
    EXPECT_EQ(expected.min_time.cost, got.min_time.cost);
  }
  EXPECT_EQ(expected.pareto, got.pareto);
  // Sampled points are merged in block-completion order, which the thread
  // scheduler perturbs — compare them as multisets.
  auto sorted = [](std::vector<CostTimePoint> points) {
    std::sort(points.begin(), points.end(),
              [](const CostTimePoint& a, const CostTimePoint& b) {
                return a.config_index < b.config_index;
              });
    return points;
  };
  EXPECT_EQ(sorted(expected.feasible_points), sorted(got.feasible_points));
}

TEST(QueryApi, MakeValidatesOnceAndStoresFields) {
  Constraints constraints;
  constraints.deadline_seconds = 3600.0;
  constraints.budget_dollars = 10.0;
  SweepOptions options;
  options.sample_stride = 3;
  const Query query = Query::make(1e12, constraints, options);
  EXPECT_EQ(query.demand(), 1e12);
  EXPECT_EQ(query.constraints().deadline_seconds, 3600.0);
  EXPECT_EQ(query.constraints().budget_dollars, 10.0);
  EXPECT_EQ(query.options().sample_stride, 3u);

  SweepOptions other;
  other.collect_pareto = false;
  const Query changed = query.with_options(other);
  EXPECT_FALSE(changed.options().collect_pareto);
  EXPECT_EQ(changed.demand(), 1e12);  // demand/constraints carry over
  EXPECT_EQ(changed.constraints().budget_dollars, 10.0);
}

TEST(QueryApi, MakeRejectsMalformedQueries) {
  EXPECT_THROW(Query::make(0.0, Constraints{}), std::invalid_argument);
  EXPECT_THROW(Query::make(-1.0, Constraints{}), std::invalid_argument);
  EXPECT_THROW(Query::make(kInf, Constraints{}), std::invalid_argument);
  EXPECT_THROW(Query::make(std::nan(""), Constraints{}),
               std::invalid_argument);
  Constraints bad;
  bad.deadline_seconds = -1.0;
  EXPECT_THROW(Query::make(1e12, bad), std::invalid_argument);
  bad = {};
  bad.budget_dollars = std::nan("");
  EXPECT_THROW(Query::make(1e12, bad), std::invalid_argument);
  bad = {};
  bad.confidence_z = -0.5;
  EXPECT_THROW(Query::make(1e12, bad), std::invalid_argument);
  bad = {};
  bad.rate_sigma = kInf;
  EXPECT_THROW(Query::make(1e12, bad), std::invalid_argument);
}

TEST(QueryApi, QueryOverloadBitIdenticalToLegacyOverload) {
  celia::util::Xoshiro256 rng(20260805);
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE(trial);
    const RandomModel model = random_model(rng);
    const double demand = std::pow(10.0, rng.uniform(10.0, 15.0));
    Constraints constraints;
    constraints.deadline_seconds = demand / rng.uniform(1e9, 5e10);
    constraints.budget_dollars = rng.uniform(0.01, 50.0);
    SweepOptions options;
    options.sample_stride = trial % 3 == 0 ? 2 : 0;
    options.collect_pareto = trial % 2 == 0;

    const SweepResult legacy = sweep(model.space, model.capacity,
                                     model.hourly, demand, constraints,
                                     options);
    const SweepResult via_query =
        sweep(model.space, model.capacity, model.hourly,
              Query::make(demand, constraints, options));
    expect_same_result(legacy, via_query, "explicit hourly costs");
    EXPECT_EQ(legacy.route, QueryRoute::kSweep);
    EXPECT_EQ(via_query.route, QueryRoute::kSweep);

    // Catalog-priced convenience overloads agree the same way.
    const SweepResult legacy_ec2 =
        sweep(model.space, model.capacity, demand, constraints, options);
    const SweepResult query_ec2 = sweep(model.space, model.capacity,
                                        Query::make(demand, constraints,
                                                    options));
    expect_same_result(legacy_ec2, query_ec2, "EC2 catalog costs");
  }
}

TEST(QueryApi, RiskAwareQueriesAgreeThroughQueryRoute) {
  celia::util::Xoshiro256 rng(31);
  const RandomModel model = random_model(rng);
  Constraints risky;
  risky.deadline_seconds = 7200.0;
  risky.confidence_z = 1.645;
  risky.rate_sigma = 0.05;
  const SweepResult legacy =
      sweep(model.space, model.capacity, model.hourly, 1e13, risky);
  const SweepResult via_query = sweep(model.space, model.capacity,
                                      model.hourly, Query::make(1e13, risky));
  expect_same_result(legacy, via_query, "risk-aware");
}

TEST(QueryApi, RouteReportsThePathTaken) {
  celia::util::Xoshiro256 rng(37);
  const RandomModel model = random_model(rng);
  Constraints constraints;
  constraints.deadline_seconds = 3600.0;

  const SweepResult plain =
      sweep(model.space, model.capacity, model.hourly, 1e12, constraints);
  EXPECT_EQ(plain.route, QueryRoute::kSweep);

  const FrontierIndex index =
      FrontierIndex::build(model.space, model.capacity, model.hourly);
  SweepOptions options;
  options.index_policy = IndexPolicy::Prefer(&index);
  const SweepResult via_index = sweep(model.space, model.capacity,
                                      model.hourly, 1e12, constraints,
                                      options);
  EXPECT_EQ(via_index.route, QueryRoute::kIndex);

  // The caller's one index keeps answering as the deadline changes.
  Constraints looser = constraints;
  looser.deadline_seconds = 2 * constraints.deadline_seconds;
  const SweepResult reused = sweep(model.space, model.capacity, model.hourly,
                                   1e12, looser, options);
  EXPECT_EQ(reused.route, QueryRoute::kIndex);

  Constraints risky = constraints;
  risky.confidence_z = 1.645;
  risky.rate_sigma = 0.05;
  options.index_policy = IndexPolicy::Prefer(&index);
  const SweepResult fell_back = sweep(model.space, model.capacity,
                                      model.hourly, 1e12, risky, options);
  EXPECT_EQ(fell_back.route, QueryRoute::kSweepFallback);

  EXPECT_EQ(query_route_name(QueryRoute::kSweep), "sweep");
  EXPECT_EQ(query_route_name(QueryRoute::kIndex), "index");
  EXPECT_EQ(query_route_name(QueryRoute::kSweepFallback), "sweep_fallback");
}

TEST(QueryApi, PreferIndexAnswersADeadlineLadderLikeSweep) {
  // One caller-held index answers every rung of a deadline ladder, each
  // exactly as the full sweep does.
  celia::util::Xoshiro256 rng(47);
  const RandomModel model = random_model(rng);
  const FrontierIndex index =
      FrontierIndex::build(model.space, model.capacity, model.hourly);
  obs::Counter& index_route = obs::counter("celia_planner_route_index_total");
  const std::uint64_t index_before = index_route.value();

  SweepOptions options;
  options.index_policy = IndexPolicy::Prefer(&index);
  constexpr int kLadder = 5;
  for (int i = 0; i < kLadder; ++i) {
    SCOPED_TRACE(i);
    Constraints constraints;
    constraints.deadline_seconds = 600.0 * (i + 1);
    const SweepResult expected = sweep(model.space, model.capacity,
                                       model.hourly, 1e12, constraints);
    const SweepResult got = sweep(model.space, model.capacity, model.hourly,
                                  1e12, constraints, options);
    EXPECT_EQ(got.route, QueryRoute::kIndex);
    expect_same_result(expected, got, "deadline ladder");
  }
  EXPECT_EQ(index_route.value() - index_before,
            static_cast<std::uint64_t>(kLadder));
}

TEST(QueryApi, PreferIndexQueryOverloadMatchesLegacyOverload) {
  // The Query overloads and the (demand, constraints) overloads take the
  // same index route and return the same answer, with explicit hourly
  // costs and with an index pinned to the EC2 catalog.
  celia::util::Xoshiro256 rng(53);
  const RandomModel model = random_model(rng);
  const FrontierIndex index =
      FrontierIndex::build(model.space, model.capacity, model.hourly);
  const celia::cloud::Catalog ec2 = celia::cloud::Catalog::ec2_table3();
  const FrontierIndex pinned =
      FrontierIndex::build(model.space, model.capacity, ec2);
  for (int trial = 0; trial < 5; ++trial) {
    SCOPED_TRACE(trial);
    const double demand = std::pow(10.0, rng.uniform(10.0, 15.0));
    Constraints constraints;
    constraints.deadline_seconds = demand / rng.uniform(1e9, 5e10);
    constraints.budget_dollars = rng.uniform(0.01, 50.0);

    SweepOptions options;
    options.index_policy = IndexPolicy::Prefer(&index);
    const SweepResult legacy = sweep(model.space, model.capacity,
                                     model.hourly, demand, constraints,
                                     options);
    const SweepResult via_query =
        sweep(model.space, model.capacity, model.hourly,
              Query::make(demand, constraints, options));
    EXPECT_EQ(legacy.route, QueryRoute::kIndex);
    EXPECT_EQ(via_query.route, QueryRoute::kIndex);
    expect_same_result(legacy, via_query, "explicit hourly costs");

    options.index_policy = IndexPolicy::Prefer(&pinned);
    const SweepResult legacy_ec2 = sweep(model.space, model.capacity, ec2,
                                         demand, constraints, options);
    const SweepResult query_ec2 =
        sweep(model.space, model.capacity, ec2,
              Query::make(demand, constraints, options));
    EXPECT_EQ(legacy_ec2.route, QueryRoute::kIndex);
    EXPECT_EQ(query_ec2.route, QueryRoute::kIndex);
    expect_same_result(legacy_ec2, query_ec2, "EC2-pinned index");
    expect_same_result(sweep(model.space, model.capacity, ec2, demand,
                             constraints),
                       query_ec2, "EC2-pinned index vs full sweep");
  }
}

TEST(QueryApi, PreferWithNullIndexThrows) {
  celia::util::Xoshiro256 rng(41);
  const RandomModel model = random_model(rng);
  SweepOptions options;
  options.index_policy = IndexPolicy::Prefer(nullptr);
  EXPECT_THROW(sweep(model.space, model.capacity, model.hourly, 1e12,
                     Constraints{}, options),
               std::invalid_argument);
}

TEST(QueryApi, RouteCountersAccountForEveryQuery) {
  celia::util::Xoshiro256 rng(43);
  const RandomModel model = random_model(rng);
  const FrontierIndex index =
      FrontierIndex::build(model.space, model.capacity, model.hourly);
  // Counters are process-wide, so assert on before/after deltas.
  obs::Counter& sweep_route = obs::counter("celia_planner_route_sweep_total");
  obs::Counter& index_route = obs::counter("celia_planner_route_index_total");
  obs::Counter& fallback_route =
      obs::counter("celia_planner_route_fallback_total");
  const std::uint64_t sweeps_before = sweep_route.value();
  const std::uint64_t index_before = index_route.value();
  const std::uint64_t fallback_before = fallback_route.value();

  Constraints constraints;
  constraints.deadline_seconds = 3600.0;
  Constraints risky = constraints;
  risky.confidence_z = 1.645;
  risky.rate_sigma = 0.05;
  SweepOptions prefer;
  prefer.index_policy = IndexPolicy::Prefer(&index);
  for (int i = 0; i < 3; ++i) {
    sweep(model.space, model.capacity, model.hourly, 1e12, constraints);
    sweep(model.space, model.capacity, model.hourly, 1e12, constraints,
          prefer);
  }
  sweep(model.space, model.capacity, model.hourly, 1e12, risky, prefer);

  EXPECT_EQ(sweep_route.value() - sweeps_before, 3u);
  EXPECT_EQ(index_route.value() - index_before, 3u);
  EXPECT_EQ(fallback_route.value() - fallback_before, 1u);
}

}  // namespace
