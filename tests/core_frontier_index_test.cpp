// Property tests for the demand-invariant FrontierIndex
// (core/frontier_index.hpp): every deterministic query must reproduce
// sweep()'s answer exactly — same feasible count, same min-cost/min-time
// configurations with bit-identical doubles, same Pareto frontier.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cloud/instance_type.hpp"
#include "core/enumerate.hpp"
#include "core/frontier_index.hpp"
#include "core/recommend.hpp"
#include "util/rng.hpp"

namespace {

using namespace celia::core;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr float kInfF = std::numeric_limits<float>::infinity();

struct RandomModel {
  ConfigurationSpace space;
  ResourceCapacity capacity;
  std::vector<double> hourly;
};

/// A random small model: 9-wide space (ResourceCapacity is always
/// catalog-wide), random per-vcpu rates and hourly prices.
RandomModel random_model(celia::util::Xoshiro256& rng) {
  std::vector<int> max_counts(celia::cloud::catalog_size());
  bool any = false;
  for (auto& count : max_counts) {
    count = static_cast<int>(rng.bounded(4));  // 0..3 => space size <= 4^9
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
  // CostTimePoint's operator== compares all three fields exactly.
  EXPECT_EQ(expected.pareto, got.pareto);
}

TEST(FrontierIndex, MatchesSweepOnRandomModelsAndQueries) {
  celia::util::Xoshiro256 rng(20170805);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(trial);
    const RandomModel model = random_model(rng);
    const FrontierIndex index =
        FrontierIndex::build(model.space, model.capacity, model.hourly);
    EXPECT_EQ(index.total_configurations(), model.space.size());

    for (int q = 0; q < 10; ++q) {
      const double demand = std::pow(10.0, rng.uniform(10.0, 16.0));
      Constraints constraints;
      switch (rng.bounded(4)) {
        case 0:  // both finite, often tight
          constraints.deadline_seconds =
              demand / rng.uniform(1e9, 5e10);
          constraints.budget_dollars = rng.uniform(0.01, 50.0);
          break;
        case 1:  // deadline only
          constraints.deadline_seconds = demand / rng.uniform(1e9, 5e10);
          break;
        case 2:  // budget only
          constraints.budget_dollars = rng.uniform(0.01, 50.0);
          break;
        case 3:  // unconstrained
          break;
      }

      const SweepResult expected = sweep(model.space, model.capacity,
                                         model.hourly, demand, constraints);
      const SweepResult got = index.query(demand, constraints);
      expect_same_result(expected, got, "query");

      SweepOptions options;
      options.index_policy = IndexPolicy::Prefer(&index);
      const SweepResult via_sweep = sweep(model.space, model.capacity,
                                          model.hourly, demand, constraints,
                                          options);
      EXPECT_EQ(via_sweep.route, QueryRoute::kIndex);
      expect_same_result(expected, via_sweep, "sweep with IndexPolicy::Prefer");
    }
  }
}

TEST(FrontierIndex, EmptyFeasibleSet) {
  celia::util::Xoshiro256 rng(42);
  const RandomModel model = random_model(rng);
  const FrontierIndex index =
      FrontierIndex::build(model.space, model.capacity, model.hourly);
  Constraints constraints;
  constraints.deadline_seconds = 1e-9;  // nothing is this fast
  const SweepResult got = index.query(1e15, constraints);
  EXPECT_FALSE(got.any_feasible);
  EXPECT_EQ(got.feasible, 0u);
  EXPECT_TRUE(got.pareto.empty());

  constraints = {};
  constraints.budget_dollars = 0.0;  // strict bound: nothing is free
  const SweepResult broke = index.query(1e15, constraints);
  EXPECT_FALSE(broke.any_feasible);
  EXPECT_EQ(broke.feasible, 0u);
}

TEST(FrontierIndex, InfiniteConstraintsCountEveryAttainableConfig) {
  celia::util::Xoshiro256 rng(7);
  const RandomModel model = random_model(rng);
  const FrontierIndex index =
      FrontierIndex::build(model.space, model.capacity, model.hourly);
  const SweepResult expected =
      sweep(model.space, model.capacity, model.hourly, 1e14, Constraints{});
  const SweepResult got = index.query(1e14, Constraints{});
  expect_same_result(expected, got, "unconstrained");
  // Rates are strictly positive, so every configuration is attainable.
  EXPECT_EQ(got.feasible, model.space.size());
  EXPECT_EQ(index.attainable_configurations(), model.space.size());
}

TEST(FrontierIndex, SingleTypeSpace) {
  std::vector<int> max_counts(celia::cloud::catalog_size(), 0);
  max_counts[0] = 5;
  const ConfigurationSpace space(max_counts);
  const ResourceCapacity capacity(
      std::vector<double>(celia::cloud::catalog_size(), 1e9),
      celia::cloud::Catalog::ec2_table3());
  const std::vector<double> hourly = ec2_hourly_costs();
  const FrontierIndex index = FrontierIndex::build(space, capacity, hourly);
  EXPECT_EQ(index.total_configurations(), 5u);

  Constraints constraints;
  constraints.deadline_seconds = 3600.0;
  constraints.budget_dollars = 100.0;
  for (const double demand : {1e9, 1e12, 1e13, 1e14}) {
    const SweepResult expected =
        sweep(space, capacity, hourly, demand, constraints);
    expect_same_result(expected, index.query(demand, constraints), "1-type");
  }
}

TEST(FrontierIndex, BuildIsDeterministic) {
  celia::util::Xoshiro256 rng(99);
  const RandomModel model = random_model(rng);
  const FrontierIndex a =
      FrontierIndex::build(model.space, model.capacity, model.hourly);
  const FrontierIndex b =
      FrontierIndex::build(model.space, model.capacity, model.hourly);
  ASSERT_EQ(a.frontier().size(), b.frontier().size());
  for (std::size_t i = 0; i < a.frontier().size(); ++i) {
    EXPECT_EQ(a.frontier()[i].u, b.frontier()[i].u);
    EXPECT_EQ(a.frontier()[i].cu, b.frontier()[i].cu);
    EXPECT_EQ(a.frontier()[i].config_index, b.frontier()[i].config_index);
  }
}

/// As random_model, but rates and prices are small integer multiples of
/// one unit: folds are exact and distinct configurations often share the
/// same (U, Cu) doubles, so the staircase's tie rules are exercised.
RandomModel tied_model(celia::util::Xoshiro256& rng) {
  RandomModel model = random_model(rng);
  std::vector<double> per_vcpu(celia::cloud::catalog_size());
  for (auto& rate : per_vcpu)
    rate = 1e9 * static_cast<double>(1 + rng.bounded(3));
  for (auto& price : model.hourly)
    price = 0.125 * static_cast<double>(1 + rng.bounded(8));
  model.capacity =
      ResourceCapacity(per_vcpu, celia::cloud::Catalog::ec2_table3());
  return model;
}

/// As random_model, but only three types are available, each with a large
/// limit: integer multiples of one mix fold to slopes a few ulps apart, so
/// the staircase carries the near-tie runs its slope margin keeps. The
/// space (over 130k configurations) is larger than the build's 65,536-point
/// seed sample, so pass A's own pruning decides which points it keeps.
RandomModel multiples_model(celia::util::Xoshiro256& rng) {
  RandomModel model = random_model(rng);
  std::vector<int> max_counts(celia::cloud::catalog_size(), 0);
  for (const std::size_t type : {0, 4, 8})
    max_counts[type] = 50 + static_cast<int>(rng.bounded(21));
  model.space = ConfigurationSpace(max_counts);
  return model;
}

std::vector<std::string> hex(std::span<const FrontierIndex::Entry> entries) {
  std::vector<std::string> out;
  for (const auto& e : entries) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "#%llu %a %a",
                  static_cast<unsigned long long>(e.config_index), e.u, e.cu);
    out.push_back(buf);
  }
  return out;
}

TEST(FrontierIndex, PrunedBuildEqualsStaircaseOfEveryPoint) {
  // The pass-A prune and the seed staircase drop points before they are
  // buffered; the result must be exactly staircase_filter over all U > 0
  // configurations, for every pool size.
  celia::util::Xoshiro256 rng(31337);
  celia::parallel::ThreadPool one(1), two(2), eight(8);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE(trial);
    const RandomModel model = trial % 3 == 0   ? tied_model(rng)
                              : trial % 3 == 1 ? random_model(rng)
                                               : multiples_model(rng);
    std::vector<FrontierIndex::Entry> all;
    for_each_configuration(
        model.space, model.capacity, model.hourly,
        [&](std::uint64_t index, double u, double cu) {
          if (u > 0) all.push_back({u, cu, index});
        },
        &one);
    const std::vector<FrontierIndex::Entry> expected =
        detail::staircase_filter(std::move(all));

    std::uint64_t fingerprint = 0;
    for (celia::parallel::ThreadPool* pool : {&one, &two, &eight}) {
      FrontierIndex::BuildOptions options;
      options.pool = pool;
      const FrontierIndex index = FrontierIndex::build(
          model.space, model.capacity, model.hourly, options);
      EXPECT_EQ(hex(index.frontier()), hex(expected));
      if (pool == &one) fingerprint = index.content_fingerprint();
      EXPECT_EQ(index.content_fingerprint(), fingerprint);
    }
  }
}

/// The build's interior fences on one axis, drawn as the build draws them:
/// quantiles of axis(u, cu) over the U > 0 values of every stride-th
/// configuration, with stride n / min(n, 65536).
template <typename Axis>
std::vector<double> reference_fences(const RandomModel& model,
                                     std::size_t grid, Axis axis) {
  const std::uint64_t n = model.space.size();
  const std::uint64_t stride =
      std::max<std::uint64_t>(1, n / std::min<std::uint64_t>(n, 65536));
  std::vector<double> sample;
  celia::parallel::ThreadPool serial(1);  // the callback appends
  for_each_configuration(
      model.space, model.capacity, model.hourly,
      [&](std::uint64_t index, double u, double cu) {
        if (index % stride == 0 && u > 0) sample.push_back(axis(u, cu));
      },
      &serial);
  std::sort(sample.begin(), sample.end());
  std::vector<double> fences;
  for (std::size_t k = 1; k < grid; ++k)
    fences.push_back(sample[(k * sample.size()) / grid]);
  return fences;
}

std::vector<double> reference_u_fences(const RandomModel& model,
                                       std::size_t grid) {
  return reference_fences(model, grid, [](double u, double) { return u; });
}

std::vector<double> reference_s_fences(const RandomModel& model,
                                       std::size_t grid) {
  return reference_fences(model, grid,
                          [](double u, double cu) { return cu / u; });
}

TEST(FrontierIndex, CountsExactOnUFencesForEveryPool) {
  // Deadlines demand / fence put the deadline boundary exactly on a strip
  // fence, where the build's strip lookup decides which side each point of
  // the partial strip lands on. Tied and integer-multiple models repeat
  // fence values. Every pool size must give the same frontier and the
  // sweep's exact count.
  celia::util::Xoshiro256 rng(8086);
  celia::parallel::ThreadPool one(1), two(2), eight(8);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE(trial);
    const RandomModel model =
        trial % 2 == 0 ? tied_model(rng) : multiples_model(rng);
    const double demand = 1e13;
    std::vector<FrontierIndex> indexes;
    for (celia::parallel::ThreadPool* pool : {&one, &two, &eight}) {
      FrontierIndex::BuildOptions options;
      options.pool = pool;
      indexes.push_back(FrontierIndex::build(model.space, model.capacity,
                                             model.hourly, options));
      EXPECT_EQ(indexes.back().content_fingerprint(),
                indexes.front().content_fingerprint());
    }
    const std::vector<double> fences =
        reference_u_fences(model, indexes.front().grid_resolution());
    const std::size_t step = std::max<std::size_t>(1, fences.size() / 24);
    for (std::size_t k = 0; k < fences.size(); k += step) {
      SCOPED_TRACE(fences[k]);
      for (const double budget : {kInf, 2.0}) {
        Constraints constraints;
        constraints.deadline_seconds = demand / fences[k];
        constraints.budget_dollars = budget;
        const SweepResult expected = sweep(model.space, model.capacity,
                                           model.hourly, demand, constraints);
        for (const FrontierIndex& index : indexes)
          EXPECT_EQ(index.query(demand, constraints, false).feasible,
                    expected.feasible);
      }
    }
  }
}

/// Budgets on which the partial-strip count decides a point's fate: the
/// sampled points' own costs at `demand` and their float neighbours, the
/// slope-form costs of the points' float slope keys and of those keys'
/// neighbours, and every few s-fences.
std::vector<double> boundary_budgets(const RandomModel& model, double demand,
                                     std::span<const double> s_fences) {
  const double hscale = demand / 3600.0;
  const auto around = [](std::vector<double>& out, double x) {
    out.push_back(std::nextafter(x, 0.0));
    out.push_back(x);
    out.push_back(std::nextafter(x, kInf));
  };
  std::vector<double> budgets;
  const std::uint64_t stride =
      std::max<std::uint64_t>(1, model.space.size() / 12);
  celia::parallel::ThreadPool serial(1);  // the callback appends
  for_each_configuration(
      model.space, model.capacity, model.hourly,
      [&](std::uint64_t index, double u, double cu) {
        if (index % stride != 0 || !(u > 0)) return;
        around(budgets, demand / u / 3600.0 * cu);
        const float key = static_cast<float>(cu / u);
        for (const float k : {std::nextafter(key, 0.0f), key,
                              std::nextafter(key, kInfF)})
          around(budgets, hscale * static_cast<double>(k));
      },
      &serial);
  const std::size_t step = std::max<std::size_t>(1, s_fences.size() / 6);
  for (std::size_t k = 0; k < s_fences.size(); k += step)
    around(budgets, hscale * s_fences[k]);
  return budgets;
}

std::uint64_t brute_force_count(const RandomModel& model, double demand,
                                const Constraints& constraints) {
  SweepOptions options;
  options.collect_pareto = false;
  options.index_policy = IndexPolicy::Never();
  return sweep(model.space, model.capacity, model.hourly, demand, constraints,
               options)
      .feasible;
}

/// Every budget of boundary_budgets() under an open deadline, a deadline
/// on a u-fence and a deadline on a sampled point's own U: the index's
/// count must equal the brute-force count.
void expect_exact_counts_on_boundaries(const RandomModel& model,
                                       std::span<const FrontierIndex> indexes,
                                       double demand) {
  const std::size_t grid = indexes.front().grid_resolution();
  const std::vector<double> u_fences = reference_u_fences(model, grid);
  const std::vector<double> s_fences = reference_s_fences(model, grid);
  const std::vector<double> budgets =
      boundary_budgets(model, demand, s_fences);
  const auto frontier = indexes.front().frontier();
  const std::vector<double> deadlines = {
      kInf, demand / u_fences[u_fences.size() / 3],
      demand / frontier[frontier.size() / 2].u};
  for (const double deadline : deadlines) {
    for (const double budget : budgets) {
      SCOPED_TRACE(::testing::Message() << std::hexfloat << "deadline "
                                        << deadline << " budget " << budget);
      Constraints constraints;
      constraints.deadline_seconds = deadline;
      constraints.budget_dollars = budget;
      const std::uint64_t expected =
          brute_force_count(model, demand, constraints);
      for (const FrontierIndex& index : indexes)
        EXPECT_EQ(index.query(demand, constraints, false).feasible, expected);
    }
  }
}

TEST(FrontierIndex, CountsExactOnBudgetBoundariesForEveryPool) {
  // Budgets exactly on points' own costs, on float slope-key boundaries
  // and on s-fences put points on both sides of the partial s-strip's
  // certified prefix and suffix and inside its re-tested band; the u-fence
  // and own-U deadlines do the same for the partial u-strip's screen.
  // Tied and integer-multiple models repeat keys and slopes, which the
  // stable strip order must keep consistent for every pool size.
  celia::util::Xoshiro256 rng(1414);
  celia::parallel::ThreadPool one(1), two(2), eight(8);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE(trial);
    const RandomModel model =
        trial % 2 == 0 ? tied_model(rng) : multiples_model(rng);
    std::vector<FrontierIndex> indexes;
    for (celia::parallel::ThreadPool* pool : {&one, &two, &eight}) {
      FrontierIndex::BuildOptions options;
      options.pool = pool;
      indexes.push_back(FrontierIndex::build(model.space, model.capacity,
                                             model.hourly, options));
      EXPECT_EQ(indexes.back().content_fingerprint(),
                indexes.front().content_fingerprint());
    }
    expect_exact_counts_on_boundaries(model, indexes, 1e13);
  }
}

TEST(FrontierIndex, WithLimitIndexCountsExactOnBudgetBoundaries) {
  // with_limit() regroups and re-orders the s-strips of the filtered point
  // store; its counts must stay exact on the same boundary budgets.
  celia::util::Xoshiro256 rng(2718);
  for (int trial = 0; trial < 2; ++trial) {
    SCOPED_TRACE(trial);
    const RandomModel model =
        trial % 2 == 0 ? tied_model(rng) : multiples_model(rng);
    const FrontierIndex anchor =
        FrontierIndex::build(model.space, model.capacity, model.hourly);
    std::vector<int> limits = model.space.max_counts();
    const auto type = static_cast<std::size_t>(
        std::max_element(limits.begin(), limits.end()) - limits.begin());
    limits[type] -= 1;
    std::optional<FrontierIndex> narrowed =
        anchor.with_limit(type, limits[type]);
    ASSERT_TRUE(narrowed.has_value());
    const RandomModel shrunk{ConfigurationSpace(limits), model.capacity,
                             model.hourly};
    EXPECT_EQ(narrowed->content_fingerprint(),
              FrontierIndex::build(shrunk.space, shrunk.capacity,
                                   shrunk.hourly)
                  .content_fingerprint());
    std::vector<FrontierIndex> indexes;
    indexes.push_back(std::move(*narrowed));
    expect_exact_counts_on_boundaries(shrunk, indexes, 1e13);
  }
}

TEST(FrontierIndex, CountsExactAtLargeAndSmallMagnitudes) {
  // The screens' slack bounds hold for demands and budgets far from the
  // usual scale as long as no rounded cost can underflow; budgets on the
  // tied model's exact slopes put many points on the boundary.
  celia::util::Xoshiro256 rng(1729);
  const RandomModel model = tied_model(rng);
  const FrontierIndex index =
      FrontierIndex::build(model.space, model.capacity, model.hourly);
  for (const double demand : {1e-100, 1e-20, 1e40, 1e100}) {
    for (const double per_hour : {5e-11, 2e-10}) {
      Constraints constraints;
      constraints.deadline_seconds = demand / 4e9;
      constraints.budget_dollars = demand / 3600.0 * per_hour;
      SCOPED_TRACE(::testing::Message() << demand << " " << per_hour);
      expect_same_result(
          sweep(model.space, model.capacity, model.hourly, demand,
                constraints),
          index.query(demand, constraints), "magnitude");
    }
  }
}

TEST(FrontierIndex, BuildRefusesSpacesBeyond32Bits) {
  // 12^9 - 1 > 2^32 - 1 configurations: refused before any walk.
  const ConfigurationSpace space(
      std::vector<int>(celia::cloud::catalog_size(), 11));
  const ResourceCapacity capacity(
      std::vector<double>(celia::cloud::catalog_size(), 1e9),
      celia::cloud::Catalog::ec2_table3());
  EXPECT_THROW(FrontierIndex::build(space, capacity), std::length_error);
}

TEST(FrontierIndex, OrderSegmentsByKeyIsStableAndOrdered) {
  // Against std::stable_sort per segment: few distinct keys (long tie
  // runs), keys that differ in every byte, negatives, -0.0 against +0.0,
  // +inf, and empty, single and large segments.
  celia::util::Xoshiro256 rng(4242);
  const std::vector<float> alphabet = {-3.5f, -0.0f, 0.0f,  1e-40f, 1.0f,
                                       1.0f,  1.5f,  2e30f, kInfF};
  const std::vector<std::uint64_t> sizes = {0, 1, 2, 3, 300, 0, 5000, 64, 7};
  for (const bool narrow : {true, false}) {
    SCOPED_TRACE(narrow);
    std::vector<std::uint64_t> offsets = {0};
    for (const std::uint64_t size : sizes)
      offsets.push_back(offsets.back() + size);
    const std::size_t n = offsets.back();
    std::vector<float> keys(n);
    for (float& key : keys)
      key = narrow ? alphabet[rng.bounded(alphabet.size())]
                   : static_cast<float>(rng.uniform(-1e6, 1e6));
    std::vector<std::uint32_t> values(n);
    for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<std::uint32_t>(i);

    std::vector<std::pair<float, std::uint32_t>> expected;
    for (std::size_t i = 0; i < n; ++i) expected.emplace_back(keys[i], values[i]);
    for (std::size_t j = 0; j + 1 < offsets.size(); ++j)
      std::stable_sort(expected.begin() + static_cast<std::ptrdiff_t>(offsets[j]),
                       expected.begin() + static_cast<std::ptrdiff_t>(offsets[j + 1]),
                       [](const auto& a, const auto& b) { return a.first < b.first; });

    detail::order_segments_by_key(offsets, keys, values);
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(values[i], expected[i].second);
      EXPECT_EQ(keys[i], expected[i].first);
    }
  }
}

TEST(FrontierIndex, StaircaseIsSortedAndAttainable) {
  celia::util::Xoshiro256 rng(5);
  const RandomModel model = random_model(rng);
  const FrontierIndex index =
      FrontierIndex::build(model.space, model.capacity, model.hourly);
  const auto frontier = index.frontier();
  ASSERT_FALSE(frontier.empty());
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    EXPECT_GT(frontier[i].u, 0.0);
    EXPECT_LT(frontier[i].config_index, model.space.size());
    if (i > 0) {
      EXPECT_LE(frontier[i - 1].u, frontier[i].u);
      // Slopes ascend modulo the dominance margin (near-ties are kept).
      EXPECT_LE(frontier[i - 1].cu / frontier[i - 1].u,
                (frontier[i].cu / frontier[i].u) * (1.0 + 1e-13));
    }
  }
  EXPECT_GT(index.memory_bytes(), 0u);
  EXPECT_GE(index.grid_resolution(), 8u);
}

TEST(FrontierIndex, MemoryBytesChargesOneMorePointExactly) {
  // Two one-type spaces that differ by one configuration, on the same
  // explicit grid. Every point of a one-type space is on the staircase
  // and in the wide candidate set, so the extra point costs its four
  // point-store lanes plus one staircase entry and one candidate entry;
  // vector growth slack must not be charged.
  celia::util::Xoshiro256 rng(53);
  const RandomModel model = random_model(rng);
  FrontierIndex::BuildOptions options;
  options.grid = 4;
  const auto build_one_type = [&](int max_count) {
    std::vector<int> max_counts(celia::cloud::catalog_size(), 0);
    max_counts[0] = max_count;
    return FrontierIndex::build(ConfigurationSpace(max_counts),
                                model.capacity, model.hourly, options);
  };
  const FrontierIndex smaller = build_one_type(40);
  const FrontierIndex larger = build_one_type(41);
  ASSERT_TRUE(smaller.delta_capable() && larger.delta_capable());
  ASSERT_EQ(larger.attainable_configurations(),
            smaller.attainable_configurations() + 1);
  ASSERT_EQ(larger.frontier().size(), smaller.frontier().size() + 1);
  const std::size_t point_lanes =
      2 * sizeof(double) + 2 * sizeof(std::uint32_t);  // u, cu, idx, s-pos
  EXPECT_EQ(larger.memory_bytes() - smaller.memory_bytes(),
            point_lanes + 2 * sizeof(FrontierIndex::Entry));
  // The axis delta back to 40 filters the point store in place; it must
  // charge what a fresh build of that space does.
  const std::optional<FrontierIndex> narrowed = larger.with_limit(0, 40);
  ASSERT_TRUE(narrowed.has_value());
  EXPECT_EQ(narrowed->memory_bytes(), smaller.memory_bytes());
}

TEST(FrontierIndex, QueryValidation) {
  celia::util::Xoshiro256 rng(3);
  const RandomModel model = random_model(rng);
  const FrontierIndex index =
      FrontierIndex::build(model.space, model.capacity, model.hourly);
  EXPECT_THROW(index.query(0.0, Constraints{}), std::invalid_argument);
  EXPECT_THROW(index.query(-1.0, Constraints{}), std::invalid_argument);
  Constraints risky;
  risky.confidence_z = 1.645;
  risky.rate_sigma = 0.05;
  EXPECT_THROW(index.query(1e12, risky), std::invalid_argument);
}

TEST(FrontierIndex, SweepRejectsMismatchedIndex) {
  celia::util::Xoshiro256 rng(11);
  const RandomModel a = random_model(rng);
  const RandomModel b = random_model(rng);
  const FrontierIndex index = FrontierIndex::build(a.space, a.capacity,
                                                   a.hourly);
  SweepOptions options;
  options.index_policy = IndexPolicy::Prefer(&index);
  EXPECT_THROW(sweep(b.space, b.capacity, b.hourly, 1e12, Constraints{},
                     options),
               std::invalid_argument);
}

TEST(FrontierIndex, RiskAwareConstraintsFallBackToSweep) {
  celia::util::Xoshiro256 rng(13);
  const RandomModel model = random_model(rng);
  const FrontierIndex index =
      FrontierIndex::build(model.space, model.capacity, model.hourly);
  Constraints risky;
  risky.deadline_seconds = 3600.0;
  risky.confidence_z = 1.645;
  risky.rate_sigma = 0.05;
  const SweepResult expected =
      sweep(model.space, model.capacity, model.hourly, 1e13, risky);
  SweepOptions options;
  // Must be ignored: risk-aware needs the sweep — and the fallback is
  // visible in the result's route.
  options.index_policy = IndexPolicy::Prefer(&index);
  const SweepResult got =
      sweep(model.space, model.capacity, model.hourly, 1e13, risky, options);
  EXPECT_EQ(got.route, QueryRoute::kSweepFallback);
  expect_same_result(expected, got, "risk-aware fallback");
}

TEST(FrontierIndex, PicksFromPreferIndexMatchSweepPlusPick) {
  // A frontier pick is sweep() + pick_from_frontier; answering the sweep
  // from a caller-held index must not change which point is picked.
  celia::util::Xoshiro256 rng(19);
  int feasible_queries = 0;
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE(trial);
    const RandomModel model = random_model(rng);
    const FrontierIndex index =
        FrontierIndex::build(model.space, model.capacity, model.hourly);
    SweepOptions options;
    options.index_policy = IndexPolicy::Prefer(&index);
    Constraints bounded;
    bounded.deadline_seconds = 7200.0;
    bounded.budget_dollars = 25.0;
    for (const Constraints& constraints : {Constraints{}, bounded}) {
      const double demand = 5e12;
      const SweepResult expected = sweep(model.space, model.capacity,
                                         model.hourly, demand, constraints);
      const SweepResult got = sweep(model.space, model.capacity,
                                    model.hourly, demand, constraints,
                                    options);
      EXPECT_EQ(got.route, QueryRoute::kIndex);
      ASSERT_EQ(got.any_feasible, expected.any_feasible);
      if (!expected.any_feasible) continue;
      ++feasible_queries;
      for (const PickStrategy strategy :
           {PickStrategy::kCheapest, PickStrategy::kFastest,
            PickStrategy::kBalanced, PickStrategy::kKnee}) {
        SCOPED_TRACE(pick_strategy_name(strategy));
        const CostTimePoint direct =
            pick_from_frontier(expected.pareto, strategy);
        const CostTimePoint via_index =
            pick_from_frontier(got.pareto, strategy);
        EXPECT_EQ(via_index.config_index, direct.config_index);
        EXPECT_EQ(via_index.cost, direct.cost);
        EXPECT_EQ(via_index.seconds, direct.seconds);
      }
    }

    // An impossible deadline leaves nothing to pick on either route.
    Constraints impossible;
    impossible.deadline_seconds = 1e-9;
    const SweepResult none = sweep(model.space, model.capacity, model.hourly,
                                   5e12, impossible, options);
    EXPECT_EQ(none.route, QueryRoute::kIndex);
    EXPECT_FALSE(none.any_feasible);
    EXPECT_TRUE(none.pareto.empty());
  }
  // Unconstrained queries are always feasible, so every trial picked.
  EXPECT_GE(feasible_queries, 6);
}

TEST(FrontierIndex, ExplicitGridResolutionStillExact) {
  celia::util::Xoshiro256 rng(23);
  const RandomModel model = random_model(rng);
  for (const std::size_t grid : {1u, 2u, 7u, 64u}) {
    FrontierIndex::BuildOptions options;
    options.grid = grid;
    const FrontierIndex index = FrontierIndex::build(
        model.space, model.capacity, model.hourly, options);
    EXPECT_EQ(index.grid_resolution(), grid);
    Constraints constraints;
    constraints.deadline_seconds = 1800.0;
    constraints.budget_dollars = 10.0;
    const SweepResult expected = sweep(model.space, model.capacity,
                                       model.hourly, 3e12, constraints);
    expect_same_result(expected, index.query(3e12, constraints), "grid");
  }
}

TEST(FrontierIndex, BuildValidatesWidths) {
  celia::util::Xoshiro256 rng(29);
  const RandomModel model = random_model(rng);
  const std::vector<double> short_hourly(model.space.num_types() - 1, 0.1);
  EXPECT_THROW(
      FrontierIndex::build(model.space, model.capacity, short_hourly),
      std::invalid_argument);
}

}  // namespace
