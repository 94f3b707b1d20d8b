#pragma once
// Cost-time Pareto filtering (paper §III-D).
//
// Feasible configurations are filtered to the Pareto frontier: the set of
// configurations not dominated in (time, cost). Both objectives are
// minimized. Two filters are provided: the exact sort-and-scan filter, and
// the epsilon-nondomination variant of Woodruff & Herman's pareto.py (the
// tool the paper cites), which thins the frontier to one representative
// per epsilon box.

#include <cstdint>
#include <vector>

namespace celia::core {

/// A feasible configuration's predicted performance.
struct CostTimePoint {
  std::uint64_t config_index = 0;  // into a ConfigurationSpace
  double seconds = 0.0;
  double cost = 0.0;

  friend bool operator==(const CostTimePoint&, const CostTimePoint&) = default;
};

/// True when `a` dominates `b`: no worse in both objectives, strictly
/// better in at least one.
inline bool dominates(const CostTimePoint& a, const CostTimePoint& b) {
  return a.seconds <= b.seconds && a.cost <= b.cost &&
         (a.seconds < b.seconds || a.cost < b.cost);
}

/// The canonical reduction orders: (cost, seconds, config_index) and
/// (seconds, cost, config_index). Every planner reduction — min-cost,
/// min-time, the Pareto sort, every cross-block merge — ranks with one of
/// these (a scan that visits points in index order may drop the last key),
/// so a tie in (cost, seconds) always resolves to the lowest config_index
/// whatever the visit order, block partition or thread count.
inline bool cheaper(const CostTimePoint& a, const CostTimePoint& b) {
  if (a.cost != b.cost) return a.cost < b.cost;
  if (a.seconds != b.seconds) return a.seconds < b.seconds;
  return a.config_index < b.config_index;
}

inline bool faster(const CostTimePoint& a, const CostTimePoint& b) {
  if (a.seconds != b.seconds) return a.seconds < b.seconds;
  if (a.cost != b.cost) return a.cost < b.cost;
  return a.config_index < b.config_index;
}

/// Exact Pareto filter; returns the frontier sorted by ascending cost
/// (hence descending time). Among points equal in (cost, seconds) the one
/// with the lowest config_index is kept. O(n log n).
std::vector<CostTimePoint> pareto_filter(std::vector<CostTimePoint> points);

/// Epsilon-nondomination sort: points are binned into (eps_seconds x
/// eps_cost) boxes; dominance is evaluated on box coordinates and one
/// representative (closest to the ideal corner of its box) is kept per
/// nondominated box. Returns representatives sorted by ascending cost.
std::vector<CostTimePoint> epsilon_nondominated(
    std::vector<CostTimePoint> points, double eps_seconds, double eps_cost);

}  // namespace celia::core
