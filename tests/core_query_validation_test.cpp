// Shared constraint validation (core/enumerate.hpp validate_query): every
// planner entry point — sweep() with or without a Prefer index,
// FrontierIndex::query(),
// Celia::select / min_cost_configuration — must reject NaN and negative
// deadlines/budgets identically instead of silently sweeping garbage.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "apps/registry.hpp"
#include "cloud/provider.hpp"
#include "core/celia.hpp"
#include "core/enumerate.hpp"
#include "core/frontier_index.hpp"

namespace {

using namespace celia::core;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

ResourceCapacity small_capacity() {
  std::vector<double> per_vcpu = {1.4e9, 1.4e9, 1.4e9, 1.3e9, 1.3e9,
                                  1.3e9, 1.1e9, 1.1e9, 1.1e9};
  return ResourceCapacity(per_vcpu, celia::cloud::Catalog::ec2_table3());
}

/// Malformed (demand, constraints) pairs every entry point must reject.
struct BadQuery {
  double demand;
  Constraints constraints;
};

std::vector<BadQuery> bad_queries() {
  std::vector<BadQuery> bad;
  bad.push_back({kNaN, {}});
  bad.push_back({-1e12, {}});
  bad.push_back({0.0, {}});
  bad.push_back({kInf, {}});
  Constraints c;
  c.deadline_seconds = kNaN;
  bad.push_back({1e12, c});
  c = {};
  c.deadline_seconds = -3600.0;
  bad.push_back({1e12, c});
  c = {};
  c.budget_dollars = kNaN;
  bad.push_back({1e12, c});
  c = {};
  c.budget_dollars = -5.0;
  bad.push_back({1e12, c});
  c = {};
  c.confidence_z = -1.0;
  bad.push_back({1e12, c});
  c = {};
  c.confidence_z = kNaN;
  bad.push_back({1e12, c});
  c = {};
  c.rate_sigma = -0.1;
  bad.push_back({1e12, c});
  c = {};
  c.rate_sigma = kInf;
  bad.push_back({1e12, c});
  return bad;
}

TEST(QueryValidation, ValidatorAcceptsEdgeCasesThatMeanSomething) {
  Constraints c;  // both constraints unbounded
  EXPECT_NO_THROW(validate_query(1e12, c));
  c.deadline_seconds = 0.0;  // admits nothing, but is well-formed
  c.budget_dollars = 0.0;
  EXPECT_NO_THROW(validate_query(1e12, c));
}

TEST(QueryValidation, SweepRejectsMalformedQueries) {
  const ConfigurationSpace space(std::vector<int>(9, 1));
  const auto capacity = small_capacity();
  for (const auto& bad : bad_queries()) {
    EXPECT_THROW(sweep(space, capacity, bad.demand, bad.constraints),
                 std::invalid_argument)
        << "demand=" << bad.demand;
  }
  // A well-formed zero deadline sweeps fine and admits nothing.
  Constraints c;
  c.deadline_seconds = 0.0;
  const auto result = sweep(space, capacity, 1e12, c);
  EXPECT_FALSE(result.any_feasible);
}

TEST(QueryValidation, FrontierIndexQueryRejectsMalformedQueries) {
  const ConfigurationSpace space(std::vector<int>(9, 1));
  const auto capacity = small_capacity();
  const FrontierIndex index = FrontierIndex::build(space, capacity);
  for (const auto& bad : bad_queries()) {
    // Risk-aware rejections overlap (the index refuses them anyway); the
    // malformed fields must throw regardless.
    EXPECT_THROW(index.query(bad.demand, bad.constraints),
                 std::invalid_argument)
        << "demand=" << bad.demand;
  }
  EXPECT_NO_THROW(index.query(1e12, Constraints{}));
}

TEST(QueryValidation, PreferIndexSweepRejectsMalformedQueries) {
  // Validation runs before the route is chosen: a caller-held index must
  // not let a malformed query through on the index path.
  const ConfigurationSpace space(std::vector<int>(9, 1));
  const auto capacity = small_capacity();
  const FrontierIndex index = FrontierIndex::build(space, capacity);
  SweepOptions options;
  options.index_policy = IndexPolicy::Prefer(&index);
  for (const auto& bad : bad_queries()) {
    EXPECT_THROW(sweep(space, capacity, bad.demand, bad.constraints, options),
                 std::invalid_argument)
        << "demand=" << bad.demand;
  }
  const SweepResult well_formed =
      sweep(space, capacity, 1e12, Constraints{}, options);
  EXPECT_EQ(well_formed.route, QueryRoute::kIndex);
}

TEST(QueryValidation, CeliaEntryPointsRejectMalformedQueries) {
  celia::cloud::CloudProvider provider(2017);
  const auto app = celia::apps::make_galaxy();
  const Celia celia = Celia::build(*app, provider);
  const celia::apps::AppParams params{4096, 1000};

  EXPECT_THROW(celia.min_cost_configuration(params, kNaN),
               std::invalid_argument);
  EXPECT_THROW(celia.min_cost_configuration(params, -24.0),
               std::invalid_argument);
  EXPECT_THROW(celia.select(params, kNaN, 100.0), std::invalid_argument);
  EXPECT_THROW(celia.select(params, -1.0, 100.0), std::invalid_argument);
  EXPECT_THROW(celia.select(params, 24.0, kNaN), std::invalid_argument);
  EXPECT_THROW(celia.select(params, 24.0, -100.0), std::invalid_argument);
}

}  // namespace
