#pragma once
// core::Query — the validated planner query value type.
//
// Every planner entry point — sweep(), FrontierIndex::query(),
// PlannerEngine::plan(), Celia::select()/min_cost_configuration() — routes
// through one of these. Construction via Query::make() runs validate_query()
// exactly once; downstream code trusts a Query and never re-validates, so
// a query is checked once no matter how many layers it passes through
// (and a malformed one is rejected at the API boundary, with the same
// std::invalid_argument regardless of entry point).
//
// The bundled SweepOptions carry the execution knobs (pool, sampling,
// Pareto collection) and the IndexPolicy deciding whether the
// demand-invariant FrontierIndex may answer; the route actually taken is
// reported in SweepResult::route.

#include "core/enumerate.hpp"

namespace celia::core {

class Query {
 public:
  /// Validate (throws std::invalid_argument — see validate_query) and
  /// bundle a scalar (1-D) planner query.
  static Query make(double demand, const Constraints& constraints,
                    SweepOptions options = {});

  /// Vector form: per-dimension demand, to be evaluated against a
  /// ResourceCapacity of the same width (sweep throws on a mismatch).
  /// Validation (see the validate_query overload) requires dimension 0 —
  /// instructions — positive, the rest non-negative; a 1-D vector query is
  /// bit-identical to the scalar form with the same value.
  static Query make(const apps::DemandVector& demand,
                    const Constraints& constraints, SweepOptions options = {});

  /// Vector form with the demand's DIMENSION SCHEMA attached: the vector's
  /// width must match `schema`, and every rejection — width mismatch, a
  /// bad component, risk-aware multi-dimensional selection — names the
  /// offending dimension names (schema.describe()) instead of bare
  /// indices, so a caller juggling several schemas can see WHICH one was
  /// mis-queried.
  static Query make(const apps::DemandVector& demand,
                    const apps::DemandDimensions& schema,
                    const Constraints& constraints, SweepOptions options = {});

  /// Scalar view: dimension 0 (instructions) — the full demand for 1-D
  /// queries, which is every query the legacy entry points produce.
  double demand() const noexcept { return demand_.values[0]; }
  const apps::DemandVector& demand_vector() const noexcept { return demand_; }
  std::size_t num_dimensions() const noexcept { return demand_.size(); }
  const Constraints& constraints() const noexcept { return constraints_; }
  const SweepOptions& options() const noexcept { return options_; }

  /// Copy with different options (constraints/demand stay validated).
  Query with_options(SweepOptions options) const;

 private:
  Query() = default;

  apps::DemandVector demand_;
  Constraints constraints_;
  SweepOptions options_;
};

}  // namespace celia::core
