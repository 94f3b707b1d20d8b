#pragma once
// CELIA — the top-level facade (paper Fig. 1).
//
// Given an elastic application and a cloud provider, `Celia::build()`
// performs the measurement campaign (scale-down profiling for the demand
// model; timed cloud runs for resource capacities) and returns an object
// that answers the paper's questions:
//   * predict(params, config)           — time & cost on one configuration;
//   * select(params, deadline, budget)  — Algorithm 1 + Pareto filter over
//                                         the full configuration space;
//   * min_cost_configuration(...)       — cheapest feasible configuration.

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apps/elastic_app.hpp"
#include "cloud/catalog.hpp"
#include "cloud/provider.hpp"
#include "core/capacity.hpp"
#include "core/configuration.hpp"
#include "core/enumerate.hpp"
#include "core/time_cost.hpp"
#include "fit/demand_fit.hpp"

namespace celia::core {

class Celia {
 public:
  /// Run the full measurement-driven build: fit the demand model from the
  /// application's profile grid (local `perf` runs) and characterize every
  /// resource type's capacity (timed cloud runs).
  static Celia build(
      const apps::ElasticApp& app, cloud::CloudProvider& provider,
      CharacterizationMode mode = CharacterizationMode::kFullMeasurement);

  /// Assemble from already-known models (for tests and what-if studies),
  /// planning against the paper's Table III catalog.
  Celia(std::string app_name, hw::WorkloadClass workload,
        fit::SeparableDemandModel demand, ResourceCapacity capacity,
        ConfigurationSpace space);

  /// Assemble against an explicit catalog snapshot. Throws
  /// std::invalid_argument when `capacity` was characterized against a
  /// structurally different catalog, or when the space width disagrees
  /// with the catalog.
  Celia(std::string app_name, hw::WorkloadClass workload,
        fit::SeparableDemandModel demand, ResourceCapacity capacity,
        ConfigurationSpace space, std::shared_ptr<const cloud::Catalog> catalog);

  const std::string& app_name() const { return app_name_; }
  hw::WorkloadClass workload() const { return workload_; }
  const fit::SeparableDemandModel& demand_model() const { return demand_; }
  const ResourceCapacity& capacity() const { return capacity_; }
  const ConfigurationSpace& space() const { return space_; }
  /// The catalog this model plans against (Table III by default).
  const cloud::Catalog& catalog() const { return *catalog_; }
  std::shared_ptr<const cloud::Catalog> catalog_ptr() const {
    return catalog_;
  }

  /// Fitted demand D(n, a) in instructions.
  double predict_demand(const apps::AppParams& params) const {
    return demand_.predict(params.n, params.a);
  }

  /// Time/cost prediction for one configuration (Eq. 2-6).
  Prediction predict(const apps::AppParams& params,
                     const Configuration& config) const;

  /// Algorithm 1 + Pareto filter over the entire configuration space.
  /// Deadline in hours, budget in dollars (both strict upper bounds).
  SweepResult select(const apps::AppParams& params, double deadline_hours,
                     double budget_dollars, SweepOptions options = {}) const;

  /// Cheapest feasible configuration within the deadline (unbounded
  /// budget); nullopt when no configuration meets the deadline. The
  /// options give full sweep control — e.g. set `index_policy =
  /// IndexPolicy::Prefer(&index)` with an index built once by
  /// FrontierIndex::build(space(), capacity(), catalog()) to answer
  /// repeated deadline ladders from it, or `pool` to pick the thread pool.
  /// collect_pareto is forced off.
  std::optional<CostTimePoint> min_cost_configuration(
      const apps::AppParams& params, double deadline_hours,
      SweepOptions options = {}) const;

  /// Per-hour price of one instance of each type, indexed like the space.
  std::span<const double> hourly_costs() const { return hourly_costs_; }

 private:
  std::string app_name_;
  hw::WorkloadClass workload_;
  fit::SeparableDemandModel demand_;
  ResourceCapacity capacity_;
  ConfigurationSpace space_;
  std::shared_ptr<const cloud::Catalog> catalog_;
  std::vector<double> hourly_costs_;
};

}  // namespace celia::core
