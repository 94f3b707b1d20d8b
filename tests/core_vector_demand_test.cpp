// The vector-demand API's contract with the paper's scalar model
// (apps/demand.hpp, core/capacity.hpp):
//
//  1. A 1-D demand vector is the scalar model BIT FOR BIT — same doubles,
//     same routing — across every planner entry point (sweep,
//     FrontierIndex, PlannerEngine::plan) and the frontier pick, for all
//     three seed applications. The hexfloat goldens below are captures
//     from the scalar path (CloudProvider seed 2017, full measurement,
//     T'=24 h, C'=$350); the galaxy row matches core_bit_identity_test.cpp.
//
//  2. A multi-dimensional query is a different SCHEMA, not a degenerate
//     case: it must agree with the capacity's width, is index-ineligible
//     (the staircase is demand-invariant only in 1-D), takes the
//     observable sweep-fallback route, and computes completion time as
//     the max over bottleneck dimensions.

#include <gtest/gtest.h>

#include <vector>

#include "apps/registry.hpp"
#include "cloud/catalog.hpp"
#include "cloud/provider.hpp"
#include "core/celia.hpp"
#include "core/frontier_index.hpp"
#include "core/planner_engine.hpp"
#include "core/query.hpp"
#include "core/recommend.hpp"
#include "core/time_cost.hpp"

namespace {

using namespace celia::core;
using celia::apps::AppParams;
using celia::apps::DemandDimensions;
using celia::apps::DemandVector;
using celia::cloud::Catalog;
using celia::cloud::CloudProvider;

struct SeedGolden {
  const char* app;
  AppParams params;
  double demand;
  std::uint64_t feasible;
  std::size_t pareto_size;
  std::uint64_t min_cost_index;
  double min_cost_seconds;
  double min_cost_cost;
};

// Scalar-path captures (hexfloat; see the header comment).
constexpr SeedGolden kGoldens[] = {
    {"x264", {8000, 20}, 0x1.840e32004dfffp+49, 10'077'690u, 98u, 17u,
     0x1.7064bb2776713p+14, 0x1.06ce975f30a43p+2},
    {"galaxy", {65536, 8000}, 0x1.fbce5e08p+52, 8'046'568u, 68u, 862u,
     0x1.49bc6553dd56ap+16, 0x1.7d2b3a98b4c9cp+6},
    {"sand", {1024e6, 0.32}, 0x1.cd1b1a150ccd4p+50, 10'077'353u, 97u, 29u,
     0x1.926d8227ef1c2p+15, 0x1.de7a48bdd6e44p+3},
};

const Celia& seed_celia(const char* name) {
  static std::vector<std::pair<std::string, Celia>>* cache =
      new std::vector<std::pair<std::string, Celia>>();
  for (const auto& [cached_name, celia] : *cache)
    if (cached_name == name) return celia;
  CloudProvider provider(2017);
  cache->emplace_back(name,
                      Celia::build(*celia::apps::make_app(name), provider));
  return cache->back().second;
}

Constraints paper_constraints() {
  Constraints constraints;
  constraints.deadline_seconds = 24.0 * 3600.0;
  constraints.budget_dollars = 350.0;
  return constraints;
}

// ---------------------------------------------------------------------------
// The scalar-adapter shim: apps that never override demand_vector().
// ---------------------------------------------------------------------------

TEST(VectorDemand, SeedAppsAreScalarThroughTheShim) {
  for (const auto& golden : kGoldens) {
    const auto app = celia::apps::make_app(golden.app);
    EXPECT_EQ(app->demand_dimensions(), DemandDimensions::scalar())
        << golden.app;
    const DemandVector vector = app->demand_vector(golden.params);
    ASSERT_EQ(vector.size(), 1u) << golden.app;
    // Same double, not a recomputation.
    EXPECT_EQ(vector.values[0], app->exact_demand(golden.params))
        << golden.app;
  }
}

// ---------------------------------------------------------------------------
// 1-D vector queries are the scalar computation bit for bit.
// ---------------------------------------------------------------------------

TEST(VectorDemand, SweepIsBitIdenticalToScalarForAllSeedApps) {
  for (const auto& golden : kGoldens) {
    const Celia& celia = seed_celia(golden.app);
    const double demand = celia.predict_demand(golden.params);
    EXPECT_EQ(demand, golden.demand) << golden.app;

    const Query scalar_query = Query::make(demand, paper_constraints());
    const Query vector_query =
        Query::make(DemandVector::scalar(demand), paper_constraints());
    EXPECT_EQ(vector_query.num_dimensions(), 1u);
    EXPECT_EQ(vector_query.demand(), scalar_query.demand());

    const SweepResult via_scalar =
        sweep(celia.space(), celia.capacity(), celia.catalog(), scalar_query);
    const SweepResult via_vector =
        sweep(celia.space(), celia.capacity(), celia.catalog(), vector_query);

    // Pinned against the seed's scalar captures...
    EXPECT_EQ(via_vector.feasible, golden.feasible) << golden.app;
    ASSERT_EQ(via_vector.pareto.size(), golden.pareto_size) << golden.app;
    EXPECT_EQ(via_vector.min_cost.config_index, golden.min_cost_index);
    EXPECT_EQ(via_vector.min_cost.seconds, golden.min_cost_seconds);
    EXPECT_EQ(via_vector.min_cost.cost, golden.min_cost_cost);
    // ...and bit-identical to the scalar route along the whole frontier.
    EXPECT_EQ(via_vector.route, via_scalar.route);
    EXPECT_EQ(via_vector.min_time.config_index,
              via_scalar.min_time.config_index);
    EXPECT_EQ(via_vector.min_time.seconds, via_scalar.min_time.seconds);
    EXPECT_EQ(via_vector.min_time.cost, via_scalar.min_time.cost);
    for (std::size_t i = 0; i < via_vector.pareto.size(); ++i) {
      EXPECT_EQ(via_vector.pareto[i].config_index,
                via_scalar.pareto[i].config_index);
      EXPECT_EQ(via_vector.pareto[i].seconds, via_scalar.pareto[i].seconds);
      EXPECT_EQ(via_vector.pareto[i].cost, via_scalar.pareto[i].cost);
    }
  }
}

TEST(VectorDemand, OneDimQueriesRemainIndexEligible) {
  for (const auto& golden : kGoldens) {
    const Celia& celia = seed_celia(golden.app);
    const FrontierIndex index =
        FrontierIndex::build(celia.space(), celia.capacity());
    SweepOptions options;
    options.index_policy = IndexPolicy::Prefer(&index);
    const Query query =
        Query::make(DemandVector::scalar(celia.predict_demand(golden.params)),
                    paper_constraints(), options);
    const SweepResult result =
        sweep(celia.space(), celia.capacity(), celia.catalog(), query);
    EXPECT_EQ(result.route, QueryRoute::kIndex) << golden.app;
    EXPECT_EQ(result.feasible, golden.feasible) << golden.app;
    EXPECT_EQ(result.min_cost.config_index, golden.min_cost_index);
    EXPECT_EQ(result.min_cost.seconds, golden.min_cost_seconds);
    EXPECT_EQ(result.min_cost.cost, golden.min_cost_cost);
  }
}

TEST(VectorDemand, PickFromVectorFrontierMatchesScalar) {
  for (const auto& golden : kGoldens) {
    const Celia& celia = seed_celia(golden.app);
    const double demand = celia.predict_demand(golden.params);
    const SweepResult scalar =
        sweep(celia.space(), celia.capacity(), celia.hourly_costs(),
              Query::make(demand, paper_constraints()));
    const SweepResult vector =
        sweep(celia.space(), celia.capacity(), celia.hourly_costs(),
              Query::make(DemandVector::scalar(demand), paper_constraints()));
    ASSERT_TRUE(scalar.any_feasible && vector.any_feasible) << golden.app;
    for (const PickStrategy strategy :
         {PickStrategy::kCheapest, PickStrategy::kFastest,
          PickStrategy::kBalanced, PickStrategy::kKnee}) {
      const CostTimePoint via_scalar =
          pick_from_frontier(scalar.pareto, strategy);
      const CostTimePoint via_vector =
          pick_from_frontier(vector.pareto, strategy);
      EXPECT_EQ(via_vector.config_index, via_scalar.config_index);
      EXPECT_EQ(via_vector.seconds, via_scalar.seconds);
      EXPECT_EQ(via_vector.cost, via_scalar.cost);
    }
  }
}

TEST(VectorDemand, PlannerEnginePlanMatchesScalar) {
  PlannerEngine engine;
  engine.add_catalog("table3", Catalog::ec2_table3_ptr());
  for (const auto& golden : kGoldens) {
    const Celia& celia = seed_celia(golden.app);
    const double demand = celia.predict_demand(golden.params);
    const SweepResult via_scalar = engine.plan(
        "table3", celia.capacity(), Query::make(demand, paper_constraints()));
    const SweepResult via_vector =
        engine.plan("table3", celia.capacity(),
                    Query::make(DemandVector::scalar(demand),
                                paper_constraints()));
    // Both are index-eligible and answered from the engine's cache.
    EXPECT_EQ(via_vector.route, via_scalar.route) << golden.app;
    EXPECT_EQ(via_vector.feasible, golden.feasible) << golden.app;
    EXPECT_EQ(via_vector.min_cost.config_index, golden.min_cost_index);
    EXPECT_EQ(via_vector.min_cost.seconds, golden.min_cost_seconds);
    EXPECT_EQ(via_vector.min_cost.cost, golden.min_cost_cost);
  }
}

// ---------------------------------------------------------------------------
// Multi-dimensional schema rules.
// ---------------------------------------------------------------------------

/// A 2-D capacity over Table III: measured-style instruction rates plus a
/// synthetic IO dimension that favors the LAST types (reversed rates), so
/// the two dimensions disagree about which configuration is best.
ResourceCapacity two_dim_capacity() {
  std::vector<double> instr(9), io(9);
  for (std::size_t i = 0; i < 9; ++i) {
    instr[i] = 1.4e9 - 3e7 * static_cast<double>(i);
    io[i] = 1e3 + 1e3 * static_cast<double>(i);
  }
  return ResourceCapacity(
      DemandDimensions({"instructions", "io_ops"}), {instr, io},
      Catalog::ec2_table3());
}

TEST(VectorDemand, DimensionMismatchIsASchemaError) {
  const Celia& celia = seed_celia("galaxy");
  const ResourceCapacity two_dim = two_dim_capacity();
  // 2-D query against the 1-D capacity.
  EXPECT_THROW(sweep(celia.space(), celia.capacity(), celia.catalog(),
                     Query::make(DemandVector{{1e12, 1e6}},
                                 paper_constraints())),
               std::invalid_argument);
  // 1-D (scalar) query against the 2-D capacity.
  EXPECT_THROW(sweep(celia.space(), two_dim, celia.catalog(),
                     Query::make(1e12, paper_constraints())),
               std::invalid_argument);
}

TEST(VectorDemand, FrontierIndexRefusalNamesTheOffendingSchema) {
  const Celia& celia = seed_celia("galaxy");
  try {
    FrontierIndex::build(celia.space(), two_dim_capacity());
    FAIL() << "multi-dimensional capacity must be refused";
  } catch (const std::invalid_argument& error) {
    // The message must name WHICH schema was refused, not just a count —
    // a service juggling several capacities needs to see the dimensions.
    const std::string message = error.what();
    EXPECT_NE(message.find("instructions, io_ops"), std::string::npos)
        << message;
    EXPECT_NE(message.find("2 dimensions"), std::string::npos) << message;
  }
}

TEST(VectorDemand, RiskAwareSelectionRejectsMultiDimQueries) {
  Constraints constraints = paper_constraints();
  constraints.confidence_z = 1.645;
  constraints.rate_sigma = 0.05;
  EXPECT_THROW(Query::make(DemandVector{{1e12, 1e6}}, constraints),
               std::invalid_argument);
  // The scalar risk-aware form stays valid.
  EXPECT_NO_THROW(Query::make(DemandVector::scalar(1e12), constraints));

  // Without a schema the rejection reports the width...
  try {
    Query::make(DemandVector{{1e12, 1e6}}, constraints);
    FAIL() << "risk-aware multi-dim query must be rejected";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("risk-aware"), std::string::npos) << message;
    EXPECT_NE(message.find("(2 dimensions)"), std::string::npos) << message;
  }
  // ...and with one it names the offending dimensions.
  try {
    Query::make(DemandVector{{1e12, 1e6}},
                DemandDimensions({"instructions", "io_ops"}), constraints);
    FAIL() << "risk-aware multi-dim query must be rejected";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("risk-aware"), std::string::npos) << message;
    EXPECT_NE(message.find("schema [instructions, io_ops]"),
              std::string::npos)
        << message;
  }
}

TEST(VectorDemand, SchemaQueryOverloadValidatesAgainstTheSchema) {
  // The schema-taking Query::make pins the vector's width to the schema
  // and reports mismatches by name.
  const DemandDimensions oltp = DemandDimensions::oltp();
  EXPECT_NO_THROW(Query::make(DemandVector{{1e13, 2e7, 5e11, 1e10}}, oltp,
                              paper_constraints()));
  try {
    Query::make(DemandVector{{1e13, 2e7}}, oltp, paper_constraints());
    FAIL() << "width mismatch must be rejected";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("2 dimensions"), std::string::npos) << message;
    EXPECT_NE(
        message.find("schema [instructions, io_ops, net_bytes, mem_bytes]"),
        std::string::npos)
        << message;
    EXPECT_NE(message.find("names 4"), std::string::npos) << message;
  }
  // A bad component is reported under its schema name.
  try {
    Query::make(DemandVector{{1e13, -1.0, 5e11, 1e10}}, oltp,
                paper_constraints());
    FAIL() << "negative component must be rejected";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("('io_ops')"), std::string::npos) << message;
  }
}

TEST(VectorDemand, MultiDimQueriesTakeTheObservableSweepFallback) {
  const ResourceCapacity capacity = two_dim_capacity();
  const ConfigurationSpace space(std::vector<int>(9, 2));
  // A multi-dimensional capacity has no index, so Prefer one built on the
  // instructions-only model of the same space.
  std::vector<double> instructions;
  for (std::size_t i = 0; i < capacity.num_types(); ++i)
    instructions.push_back(capacity.per_vcpu_rate(i));
  const FrontierIndex index = FrontierIndex::build(
      space, ResourceCapacity(instructions, Catalog::ec2_table3()));
  SweepOptions options;
  options.index_policy = IndexPolicy::Prefer(&index);
  const SweepResult result =
      sweep(space, capacity, Catalog::ec2_table3(),
            Query::make(DemandVector{{1e13, 2e7}}, paper_constraints(),
                        options));
  EXPECT_EQ(result.route, QueryRoute::kSweepFallback);
  EXPECT_TRUE(result.any_feasible);
  // Without an index request the route is the plain sweep.
  const SweepResult plain =
      sweep(space, capacity, Catalog::ec2_table3(),
            Query::make(DemandVector{{1e13, 2e7}}, paper_constraints()));
  EXPECT_EQ(plain.route, QueryRoute::kSweep);
  EXPECT_EQ(plain.feasible, result.feasible);
  EXPECT_EQ(plain.min_cost.config_index, result.min_cost.config_index);
}

TEST(VectorDemand, MultiDimSweepMatchesBruteForce) {
  const ResourceCapacity capacity = two_dim_capacity();
  const ConfigurationSpace space(std::vector<int>(9, 1));
  const DemandVector demand{{5e13, 4e7}};
  Constraints constraints;
  constraints.deadline_seconds = 16.0 * 3600.0;
  constraints.budget_dollars = 40.0;

  std::uint64_t expected_feasible = 0;
  std::vector<CostTimePoint> feasible;
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    const Configuration config = space.decode(i);
    const DimensionalPrediction p =
        predict_vector(demand, config, capacity, Catalog::ec2_table3());
    if (p.seconds < constraints.deadline_seconds &&
        p.cost < constraints.budget_dollars) {
      ++expected_feasible;
      feasible.push_back({i, p.seconds, p.cost});
    }
  }
  const auto expected_pareto = pareto_filter(feasible);
  ASSERT_GT(expected_feasible, 0u);

  const SweepResult result =
      sweep(space, capacity, Catalog::ec2_table3(),
            Query::make(demand, constraints));
  EXPECT_EQ(result.feasible, expected_feasible);
  ASSERT_EQ(result.pareto.size(), expected_pareto.size());
  for (std::size_t i = 0; i < expected_pareto.size(); ++i) {
    EXPECT_EQ(result.pareto[i].config_index,
              expected_pareto[i].config_index);
    EXPECT_EQ(result.pareto[i].seconds, expected_pareto[i].seconds);
    EXPECT_EQ(result.pareto[i].cost, expected_pareto[i].cost);
  }
}

TEST(VectorDemand, PredictVectorAttributesTheBindingDimension) {
  const ResourceCapacity capacity = two_dim_capacity();
  const std::vector<int> config = {1, 0, 0, 0, 0, 0, 0, 0, 1};
  // Huge IO demand, tiny instruction demand: io_ops binds.
  const DimensionalPrediction io_bound =
      predict_vector({{1e9, 1e9}}, config, capacity);
  EXPECT_EQ(io_bound.binding_dimension, 1u);
  EXPECT_EQ(io_bound.binding_dimension_name, "io_ops");
  ASSERT_EQ(io_bound.per_dimension_seconds.size(), 2u);
  EXPECT_EQ(io_bound.seconds, io_bound.per_dimension_seconds[1]);
  EXPECT_GT(io_bound.per_dimension_seconds[1],
            io_bound.per_dimension_seconds[0]);

  // All-instruction demand: dimension 0 binds (zero IO never binds).
  const DimensionalPrediction cpu_bound =
      predict_vector({{1e13, 0.0}}, config, capacity);
  EXPECT_EQ(cpu_bound.binding_dimension, 0u);
  EXPECT_EQ(cpu_bound.binding_dimension_name, "instructions");
  EXPECT_EQ(cpu_bound.seconds, cpu_bound.per_dimension_seconds[0]);
}

TEST(VectorDemand, OneDimPredictVectorMatchesScalarPredict) {
  const Celia& celia = seed_celia("galaxy");
  const std::vector<int> config = {2, 1, 0, 3, 0, 0, 1, 0, 1};
  const double demand = celia.predict_demand({65536, 8000});
  const Prediction scalar =
      predict(demand, config, celia.capacity(), celia.catalog());
  const DimensionalPrediction vector = predict_vector(
      DemandVector::scalar(demand), config, celia.capacity(), celia.catalog());
  EXPECT_EQ(vector.seconds, scalar.seconds);
  EXPECT_EQ(vector.cost, scalar.cost);
  EXPECT_EQ(vector.binding_dimension, 0u);
}

}  // namespace
