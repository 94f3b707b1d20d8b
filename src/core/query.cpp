#include "core/query.hpp"

namespace celia::core {

Query Query::make(double demand, const Constraints& constraints,
                  SweepOptions options) {
  validate_query(demand, constraints);
  Query query;
  query.demand_ = apps::DemandVector::scalar(demand);
  query.constraints_ = constraints;
  query.options_ = options;
  return query;
}

Query Query::make(const apps::DemandVector& demand,
                  const Constraints& constraints, SweepOptions options) {
  validate_query(demand, constraints);
  Query query;
  query.demand_ = demand;
  query.constraints_ = constraints;
  query.options_ = options;
  return query;
}

Query Query::make(const apps::DemandVector& demand,
                  const apps::DemandDimensions& schema,
                  const Constraints& constraints, SweepOptions options) {
  validate_query(demand, constraints, &schema);
  Query query;
  query.demand_ = demand;
  query.constraints_ = constraints;
  query.options_ = options;
  return query;
}

Query Query::with_options(SweepOptions options) const {
  Query query = *this;
  query.options_ = options;
  return query;
}

std::string_view query_route_name(QueryRoute route) {
  switch (route) {
    case QueryRoute::kSweep:
      return "sweep";
    case QueryRoute::kIndex:
      return "index";
    case QueryRoute::kSweepFallback:
      return "sweep_fallback";
    case QueryRoute::kDegradedSweep:
      return "degraded_sweep";
    case QueryRoute::kTruncatedSweep:
      return "truncated_sweep";
  }
  return "?";
}

}  // namespace celia::core
