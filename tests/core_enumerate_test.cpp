// Tests for the parallel exhaustive sweep (core/enumerate.hpp) — checked
// against a brute-force evaluation on reduced spaces and for determinism
// on the full 10 M space.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>

#include "apps/demand.hpp"
#include "core/enumerate.hpp"
#include "core/query.hpp"
#include "core/time_cost.hpp"
#include "util/rng.hpp"

namespace {

using namespace celia::core;

ResourceCapacity test_capacity() {
  // Distinct, realistic per-vCPU rates so ties are rare.
  std::vector<double> per_vcpu = {1.4e9, 1.4e9, 1.4e9, 1.3e9, 1.3e9,
                                  1.3e9, 1.1e9, 1.1e9, 1.1e9};
  return ResourceCapacity(per_vcpu, celia::cloud::Catalog::ec2_table3());
}

/// A small model. With `tied` the per-vCPU rates and hourly prices are
/// small integer multiples of one unit: every fold is exact, so distinct
/// configurations often share the same (U, Cu) doubles and hence exactly
/// equal (seconds, cost) — every tie-break in the sweep is exercised.
/// Without it they are drawn from continuous ranges, so folds round and a
/// value taken in any other order than the walk's shows up as a mismatch.
struct SmallModel {
  ConfigurationSpace space;
  ResourceCapacity capacity;
  std::vector<double> hourly;
};

SmallModel small_model(celia::util::Xoshiro256& rng,
                       std::vector<int> max_counts, bool tied) {
  const std::size_t width = max_counts.size();
  std::vector<double> per_vcpu(width), hourly(width);
  for (std::size_t i = 0; i < width; ++i) {
    per_vcpu[i] = tied ? 1e9 * static_cast<double>(1 + rng.bounded(3))
                       : rng.uniform(1e9, 3e9);
    hourly[i] = tied ? 0.125 * static_cast<double>(1 + rng.bounded(8))
                     : rng.uniform(0.1, 1.0);
  }
  return {ConfigurationSpace(std::move(max_counts)),
          ResourceCapacity(per_vcpu, celia::cloud::Catalog::ec2_table3()),
          std::move(hourly)};
}

/// Random limits in [1, 3] per type: 511 to 262,143 configurations.
std::vector<int> random_limits(celia::util::Xoshiro256& rng) {
  std::vector<int> max_counts(celia::cloud::catalog_size());
  for (auto& count : max_counts)
    count = 1 + static_cast<int>(rng.bounded(3));
  return max_counts;
}

std::string hex(const CostTimePoint& p) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "#%llu %a %a",
                static_cast<unsigned long long>(p.config_index), p.seconds,
                p.cost);
  return buf;
}

std::vector<std::string> hex(const std::vector<CostTimePoint>& points) {
  std::vector<std::string> out;
  for (const auto& p : points) out.push_back(hex(p));
  return out;
}

void expect_bit_identical(const SweepResult& a, const SweepResult& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.any_feasible, b.any_feasible);
  EXPECT_EQ(a.route, b.route);
  EXPECT_EQ(hex(a.min_cost), hex(b.min_cost));
  EXPECT_EQ(hex(a.min_time), hex(b.min_time));
  EXPECT_EQ(hex(a.pareto), hex(b.pareto));
  EXPECT_EQ(hex(a.feasible_points), hex(b.feasible_points));
}

Constraints risk_aware(Constraints constraints) {
  constraints.confidence_z = 1.645;
  constraints.rate_sigma = 0.1;
  return constraints;
}

/// Every feasible point, gathered one configuration at a time with
/// for_each_configuration and classified with the sweep's expressions
/// (risk-aware: the effective capacity U - z sqrt(V), with V from the
/// walk's canonical fold).
std::vector<CostTimePoint> brute_force_feasible(const SmallModel& model,
                                                double demand,
                                                const Constraints& c) {
  const bool risk = c.confidence_z > 0 && c.rate_sigma > 0;
  std::vector<double> var_terms;
  for (std::size_t i = 0; i < model.capacity.num_types(); ++i) {
    const double term = model.capacity.rate(i) * c.rate_sigma;
    var_terms.push_back(term * term);
  }
  celia::parallel::ThreadPool one(1);
  std::vector<CostTimePoint> feasible;
  std::vector<int> digits(model.space.num_types());
  for_each_configuration(
      model.space, model.capacity, model.hourly,
      [&](std::uint64_t index, double u, double cu) {
        double ue = u;
        if (risk) {
          model.space.decode_into(index, digits);
          ue = u - c.confidence_z *
                       std::sqrt(SweepPlan::fold_value(digits, var_terms));
        }
        const double seconds = demand / ue;
        const double cost = seconds / 3600.0 * cu;
        if (ue > 0 && seconds < c.deadline_seconds &&
            cost < c.budget_dollars)
          feasible.push_back({index, seconds, cost});
      },
      &one);
  return feasible;
}

TEST(Sweep, VisitsEveryConfigurationOnce) {
  const ConfigurationSpace space(std::vector<int>(9, 1));  // 511 configs
  const auto capacity = test_capacity();
  std::atomic<std::uint64_t> visits{0};
  for_each_configuration(space, capacity,
                         [&](std::uint64_t, double, double) { ++visits; });
  EXPECT_EQ(visits.load(), space.size());
}

TEST(Sweep, StreamedCapacityAndCostMatchDirectComputation) {
  const ConfigurationSpace space(std::vector<int>(9, 2));
  const auto capacity = test_capacity();
  std::atomic<int> failures{0};
  for_each_configuration(
      space, capacity, [&](std::uint64_t index, double u, double cu) {
        const Configuration config = space.decode(index);
        const double expected_u = configuration_capacity(config, capacity);
        const double expected_cu = configuration_hourly_cost(config);
        if (std::abs(u - expected_u) > 1e-3 ||
            std::abs(cu - expected_cu) > 1e-9)
          ++failures;
      });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Sweep, FeasibleCountMatchesBruteForce) {
  const ConfigurationSpace space(std::vector<int>(9, 1));
  const auto capacity = test_capacity();
  const double demand = 1e15;
  Constraints constraints;
  constraints.deadline_seconds = 24 * 3600.0;
  constraints.budget_dollars = 12.0;

  std::uint64_t expected = 0;
  CostTimePoint best_cost{0, 0, 1e18};
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    const Configuration config = space.decode(i);
    const Prediction p = predict(demand, config, capacity);
    if (p.seconds < constraints.deadline_seconds &&
        p.cost < constraints.budget_dollars) {
      ++expected;
      if (p.cost < best_cost.cost) best_cost = {i, p.seconds, p.cost};
    }
  }

  const SweepResult result = sweep(space, capacity, demand, constraints);
  EXPECT_EQ(result.feasible, expected);
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(result.min_cost.config_index, best_cost.config_index);
  EXPECT_NEAR(result.min_cost.cost, best_cost.cost, 1e-12);
}

TEST(Sweep, ParetoMatchesBruteForceOnReducedSpace) {
  const ConfigurationSpace space(std::vector<int>(9, 1));
  const auto capacity = test_capacity();
  const double demand = 5e14;
  Constraints constraints;
  constraints.deadline_seconds = 12 * 3600.0;
  constraints.budget_dollars = 3.0;

  std::vector<CostTimePoint> feasible;
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    const Prediction p = predict(demand, space.decode(i), capacity);
    if (p.seconds < constraints.deadline_seconds &&
        p.cost < constraints.budget_dollars)
      feasible.push_back({i, p.seconds, p.cost});
  }
  const auto expected = pareto_filter(feasible);

  const SweepResult result = sweep(space, capacity, demand, constraints);
  ASSERT_EQ(result.pareto.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.pareto[i].config_index, expected[i].config_index);
  }
}

TEST(Sweep, UnconstrainedFindsEverythingFeasible) {
  const ConfigurationSpace space(std::vector<int>(9, 2));
  const auto capacity = test_capacity();
  const SweepResult result = sweep(space, capacity, 1e12, Constraints{});
  EXPECT_EQ(result.feasible, space.size());
  EXPECT_TRUE(result.any_feasible);
}

TEST(Sweep, ImpossibleDeadlineFindsNothing) {
  const ConfigurationSpace space(std::vector<int>(9, 2));
  const auto capacity = test_capacity();
  Constraints constraints;
  constraints.deadline_seconds = 1e-6;
  const SweepResult result = sweep(space, capacity, 1e18, constraints);
  EXPECT_EQ(result.feasible, 0u);
  EXPECT_FALSE(result.any_feasible);
  EXPECT_TRUE(result.pareto.empty());
}

TEST(Sweep, MinTimePointIsFullFleet) {
  const ConfigurationSpace space(std::vector<int>(9, 2));
  const auto capacity = test_capacity();
  const SweepResult result = sweep(space, capacity, 1e15, Constraints{});
  // The fastest configuration is everything maxed out.
  const Configuration fastest = space.decode(result.min_time.config_index);
  for (const int count : fastest) EXPECT_EQ(count, 2);
}

TEST(Sweep, SampledScatterRespectsStride) {
  const ConfigurationSpace space(std::vector<int>(9, 2));
  const auto capacity = test_capacity();
  SweepOptions options;
  options.sample_stride = 100;
  options.collect_pareto = false;
  const SweepResult result =
      sweep(space, capacity, 1e12, Constraints{}, options);
  // Ranks are global, so the sample holds exactly floor(feasible / stride)
  // points whatever the pool size.
  EXPECT_EQ(result.feasible_points.size(), result.feasible / 100);
}

TEST(Sweep, DeterministicAcrossRuns) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = test_capacity();
  Constraints constraints;
  constraints.deadline_seconds = 24 * 3600.0;
  constraints.budget_dollars = 350.0;
  const double demand = 9e15;
  const SweepResult a = sweep(space, capacity, demand, constraints);
  const SweepResult b = sweep(space, capacity, demand, constraints);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.min_cost.config_index, b.min_cost.config_index);
  ASSERT_EQ(a.pareto.size(), b.pareto.size());
  for (std::size_t i = 0; i < a.pareto.size(); ++i)
    EXPECT_EQ(a.pareto[i].config_index, b.pareto[i].config_index);
}

TEST(Sweep, BitIdenticalAcrossThreadCounts) {
  // Exact (cost, seconds) ties everywhere: the answer must still name the
  // same configurations whatever the block partition and merge order.
  celia::util::Xoshiro256 rng(1217);
  const SmallModel model = small_model(
      rng, std::vector<int>(celia::cloud::catalog_size(), 3), /*tied=*/true);
  celia::parallel::ThreadPool one(1), two(2), eight(8);
  Constraints base;
  base.deadline_seconds = 3600.0;
  const double demand = 2e13;
  // The multi-dimensional walk: io rates are small integer multiples too,
  // so bottleneck times tie exactly across configurations, and the io
  // demand binds (it drops some configurations and reshapes the frontier).
  std::vector<double> instructions, io;
  for (std::size_t i = 0; i < model.capacity.num_types(); ++i) {
    instructions.push_back(model.capacity.per_vcpu_rate(i));
    io.push_back(1e3 * static_cast<double>(1 + rng.bounded(3)));
  }
  const ResourceCapacity two_dim(
      celia::apps::DemandDimensions({"instructions", "io_ops"}),
      {instructions, io}, celia::cloud::Catalog::ec2_table3());
  struct Input {
    const char* name;
    const ResourceCapacity& capacity;
    Query query;
  };
  const Input inputs[] = {
      {"1-D", model.capacity, Query::make(demand, base)},
      {"risk-aware", model.capacity, Query::make(demand, risk_aware(base))},
      {"tied 2-D", two_dim,
       Query::make(celia::apps::DemandVector{{demand, 1e8}}, base)},
  };
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.name);
    std::vector<SweepResult> results;
    for (celia::parallel::ThreadPool* pool : {&one, &two, &eight}) {
      SweepOptions options;
      options.pool = pool;
      results.push_back(sweep(model.space, input.capacity, model.hourly,
                              input.query.with_options(options)));
    }
    ASSERT_TRUE(results[0].any_feasible);
    ASSERT_GT(results[0].pareto.size(), 1u);
    expect_bit_identical(results[0], results[1]);
    expect_bit_identical(results[0], results[2]);
  }
}

TEST(Sweep, SamplesIdenticalAcrossThreadCounts) {
  // The scatter sample keeps the feasible points of 1-based global rank
  // r with r % stride == 0, in index order: the same points for any block
  // partition, bit for bit equal to every stride-th brute-force point.
  celia::util::Xoshiro256 rng(5150);
  celia::parallel::ThreadPool one(1), two(2), eight(8);
  for (const bool tied : {true, false}) {
    SCOPED_TRACE(tied);
    const SmallModel model = small_model(
        rng, std::vector<int>(celia::cloud::catalog_size(), 3), tied);
    Constraints constraints;
    constraints.deadline_seconds = 3600.0;
    const double demand = 2e13;
    std::vector<CostTimePoint> feasible =
        brute_force_feasible(model, demand, constraints);
    std::sort(feasible.begin(), feasible.end(),
              [](const CostTimePoint& a, const CostTimePoint& b) {
                return a.config_index < b.config_index;
              });
    for (const std::uint64_t stride : {1u, 7u, 1000u}) {
      SCOPED_TRACE(stride);
      std::vector<CostTimePoint> expected;
      for (std::size_t r = 1; r <= feasible.size(); ++r)
        if (r % stride == 0) expected.push_back(feasible[r - 1]);
      ASSERT_FALSE(expected.empty());
      for (celia::parallel::ThreadPool* pool : {&one, &two, &eight}) {
        SweepOptions options;
        options.pool = pool;
        options.sample_stride = stride;
        const SweepResult result = sweep(model.space, model.capacity,
                                         model.hourly, demand, constraints,
                                         options);
        EXPECT_EQ(result.feasible, feasible.size());
        // CostTimePoint's operator== compares all three fields exactly.
        EXPECT_TRUE(result.feasible_points == expected);
      }
    }
  }
}

TEST(Sweep, PrunedParetoMatchesBruteForce) {
  celia::util::Xoshiro256 rng(4242);
  celia::parallel::ThreadPool three(3);
  int with_frontier = 0;
  for (int trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE(trial);
    // Alternate tied and continuous models, each with 1-D and risk-aware
    // queries.
    const SmallModel model =
        small_model(rng, random_limits(rng), /*tied=*/trial % 4 < 2);
    const double demand = std::pow(10.0, rng.uniform(11.0, 14.0));
    Constraints constraints;
    switch (rng.bounded(3)) {
      case 0:  // deadline only: nearly everything feasible
        constraints.deadline_seconds = demand / rng.uniform(1e9, 2e10);
        break;
      case 1:  // budget only
        constraints.budget_dollars = rng.uniform(0.01, 5.0);
        break;
      case 2:  // both
        constraints.deadline_seconds = demand / rng.uniform(1e9, 2e10);
        constraints.budget_dollars = rng.uniform(0.01, 5.0);
        break;
    }
    if (trial % 2 == 1) constraints = risk_aware(constraints);

    const std::vector<CostTimePoint> feasible =
        brute_force_feasible(model, demand, constraints);
    SweepOptions options;
    options.pool = &three;
    const SweepResult result = sweep(model.space, model.capacity,
                                     model.hourly, demand, constraints,
                                     options);
    ASSERT_EQ(result.feasible, feasible.size());
    if (feasible.empty()) {
      EXPECT_TRUE(result.pareto.empty());
      continue;
    }
    EXPECT_EQ(hex(result.pareto), hex(pareto_filter(feasible)));
    if (result.pareto.size() > 1) ++with_frontier;
    EXPECT_EQ(hex(result.min_cost),
              hex(*std::min_element(feasible.begin(), feasible.end(),
                                    cheaper)));
    EXPECT_EQ(hex(result.min_time),
              hex(*std::min_element(feasible.begin(), feasible.end(),
                                    faster)));
  }
  EXPECT_GE(with_frontier, 12);  // the queries are not degenerate
}

TEST(Sweep, ParetoPointsAreFeasibleAndMutuallyNondominated) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = test_capacity();
  Constraints constraints;
  constraints.deadline_seconds = 24 * 3600.0;
  constraints.budget_dollars = 350.0;
  const SweepResult result = sweep(space, capacity, 9e15, constraints);
  ASSERT_FALSE(result.pareto.empty());
  for (const auto& p : result.pareto) {
    EXPECT_LT(p.seconds, constraints.deadline_seconds);
    EXPECT_LT(p.cost, constraints.budget_dollars);
  }
  for (std::size_t i = 0; i < result.pareto.size(); ++i)
    for (std::size_t j = 0; j < result.pareto.size(); ++j)
      if (i != j) {
        EXPECT_FALSE(dominates(result.pareto[i], result.pareto[j]));
      }
}

TEST(Sweep, InvalidInputsThrow) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = test_capacity();
  EXPECT_THROW(sweep(space, capacity, 0.0, Constraints{}),
               std::invalid_argument);
}

TEST(Sweep, ExplicitPoolIsUsed) {
  celia::parallel::ThreadPool pool(2);
  const ConfigurationSpace space(std::vector<int>(9, 1));
  const auto capacity = test_capacity();
  SweepOptions options;
  options.pool = &pool;
  const SweepResult result =
      sweep(space, capacity, 1e12, Constraints{}, options);
  EXPECT_EQ(result.feasible, space.size());
}

}  // namespace
