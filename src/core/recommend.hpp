#pragma once
// Picking ONE configuration from a Pareto frontier.
//
// The paper stops at the frontier; a user must still choose a point on
// it. This module implements the standard selection rules for bi-objective
// frontiers, used by the planner example (--pick):
//
//   kCheapest  — minimum cost (the slowest frontier point);
//   kFastest   — minimum time (the most expensive frontier point);
//   kBalanced  — minimum normalized Euclidean distance to the utopia
//                point (min-time, min-cost), after scaling both
//                objectives to [0, 1] over the frontier;
//   kKnee      — maximum perpendicular distance from the chord joining
//                the frontier's endpoints in normalized space: the point
//                where the trade-off curvature is strongest (spending a
//                little more stops buying much time).

#include <span>
#include <string_view>

#include "core/pareto.hpp"

namespace celia::core {

enum class PickStrategy { kCheapest, kFastest, kBalanced, kKnee };

std::string_view pick_strategy_name(PickStrategy strategy);

/// Select one point from a (non-empty) frontier. The frontier need not be
/// sorted. Throws std::invalid_argument on an empty frontier.
CostTimePoint pick_from_frontier(std::span<const CostTimePoint> frontier,
                                 PickStrategy strategy);

}  // namespace celia::core
