#include "core/recommend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace celia::core {

std::string_view pick_strategy_name(PickStrategy strategy) {
  switch (strategy) {
    case PickStrategy::kCheapest:
      return "cheapest";
    case PickStrategy::kFastest:
      return "fastest";
    case PickStrategy::kBalanced:
      return "balanced";
    case PickStrategy::kKnee:
      return "knee";
  }
  return "?";
}

namespace {

struct Normalized {
  double time01;
  double cost01;
};

std::vector<Normalized> normalize(std::span<const CostTimePoint> frontier) {
  double tmin = frontier[0].seconds, tmax = frontier[0].seconds;
  double cmin = frontier[0].cost, cmax = frontier[0].cost;
  for (const auto& point : frontier) {
    tmin = std::min(tmin, point.seconds);
    tmax = std::max(tmax, point.seconds);
    cmin = std::min(cmin, point.cost);
    cmax = std::max(cmax, point.cost);
  }
  const double tspan = tmax > tmin ? tmax - tmin : 1.0;
  const double cspan = cmax > cmin ? cmax - cmin : 1.0;
  std::vector<Normalized> out;
  out.reserve(frontier.size());
  for (const auto& point : frontier)
    out.push_back(
        {(point.seconds - tmin) / tspan, (point.cost - cmin) / cspan});
  return out;
}

}  // namespace

CostTimePoint pick_from_frontier(std::span<const CostTimePoint> frontier,
                                 PickStrategy strategy) {
  if (frontier.empty())
    throw std::invalid_argument("pick_from_frontier: empty frontier");

  switch (strategy) {
    case PickStrategy::kCheapest: {
      const auto it = std::min_element(
          frontier.begin(), frontier.end(),
          [](const CostTimePoint& a, const CostTimePoint& b) {
            if (a.cost != b.cost) return a.cost < b.cost;
            return a.seconds < b.seconds;
          });
      return *it;
    }
    case PickStrategy::kFastest: {
      const auto it = std::min_element(
          frontier.begin(), frontier.end(),
          [](const CostTimePoint& a, const CostTimePoint& b) {
            if (a.seconds != b.seconds) return a.seconds < b.seconds;
            return a.cost < b.cost;
          });
      return *it;
    }
    case PickStrategy::kBalanced: {
      const auto normalized = normalize(frontier);
      std::size_t best = 0;
      double best_distance = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        const double d = normalized[i].time01 * normalized[i].time01 +
                         normalized[i].cost01 * normalized[i].cost01;
        if (d < best_distance) {
          best_distance = d;
          best = i;
        }
      }
      return frontier[best];
    }
    case PickStrategy::kKnee: {
      if (frontier.size() <= 2)
        return pick_from_frontier(frontier, PickStrategy::kBalanced);
      const auto normalized = normalize(frontier);
      // Chord endpoints: min-time and min-cost points in normalized space.
      std::size_t fast = 0, cheap = 0;
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        if (normalized[i].time01 < normalized[fast].time01) fast = i;
        if (normalized[i].cost01 < normalized[cheap].cost01) cheap = i;
      }
      const double ax = normalized[fast].time01, ay = normalized[fast].cost01;
      const double bx = normalized[cheap].time01, by = normalized[cheap].cost01;
      const double chord = std::hypot(bx - ax, by - ay);
      if (chord == 0.0)
        return pick_from_frontier(frontier, PickStrategy::kBalanced);
      std::size_t best = 0;
      double best_distance = -1.0;
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        const double distance =
            std::abs((bx - ax) * (ay - normalized[i].cost01) -
                     (ax - normalized[i].time01) * (by - ay)) /
            chord;
        if (distance > best_distance) {
          best_distance = distance;
          best = i;
        }
      }
      return frontier[best];
    }
  }
  throw std::invalid_argument("pick_from_frontier: unknown strategy");
}

}  // namespace celia::core
