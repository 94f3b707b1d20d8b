#pragma once
// Model-based analyses of §IV-E: fixed-time scaling of problem size and
// accuracy (Figs. 5 and 6) and the cost of tightening the time deadline
// (§IV-E.3). Each point is a full configuration-space sweep for the
// minimum-cost feasible configuration.

#include <span>
#include <vector>

#include "core/celia.hpp"

namespace celia::core {

/// One point of a fixed-time scaling curve.
struct ScalingPoint {
  double value = 0.0;        // the swept parameter (n or a)
  bool feasible = false;     // any configuration meets the deadline?
  double min_cost = 0.0;     // $ of the cheapest feasible configuration
  std::uint64_t config_index = 0;
  double seconds = 0.0;      // predicted time of that configuration
};

/// Fig. 5: fix accuracy, scale problem size, report min cost per deadline.
/// `options` is forwarded to every underlying sweep — pass
/// `index_policy = IndexPolicy::Prefer(&index)` with one FrontierIndex
/// built for the model so the whole curve reuses it.
std::vector<ScalingPoint> problem_size_scaling(const Celia& celia,
                                               double fixed_accuracy,
                                               std::span<const double> sizes,
                                               double deadline_hours,
                                               SweepOptions options = {});

/// Fig. 6: fix problem size, scale accuracy, report min cost per deadline.
std::vector<ScalingPoint> accuracy_scaling(const Celia& celia,
                                           double fixed_size,
                                           std::span<const double> accuracies,
                                           double deadline_hours,
                                           SweepOptions options = {});

/// §IV-E.3: fix the problem entirely and tighten the deadline.
std::vector<ScalingPoint> deadline_tightening(
    const Celia& celia, const apps::AppParams& params,
    std::span<const double> deadlines_hours, SweepOptions options = {});

/// Observation-1 statistic: cost span of a Pareto frontier —
/// max cost / min cost (1.3x for galaxy, 1.2x for sand in the paper), and
/// the saving available by picking the cheapest frontier point instead of
/// the most expensive one (up to 30%).
struct ParetoSpan {
  double min_cost = 0.0;
  double max_cost = 0.0;
  double span_ratio = 0.0;     // max / min
  double saving_fraction = 0.0;  // 1 - min / max
};
ParetoSpan pareto_span(std::span<const CostTimePoint> frontier);

}  // namespace celia::core
