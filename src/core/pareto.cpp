#include "core/pareto.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace celia::core {

std::vector<CostTimePoint> pareto_filter(std::vector<CostTimePoint> points) {
  if (points.empty()) return points;
  // Ascending cost; ties broken by ascending time so the scan keeps the
  // best-time representative of each cost level, then by config_index so
  // the kept representative never depends on the input order.
  std::sort(points.begin(), points.end(), cheaper);
  std::vector<CostTimePoint> frontier;
  double best_seconds = std::numeric_limits<double>::infinity();
  for (const auto& point : points) {
    if (point.seconds < best_seconds) {
      frontier.push_back(point);
      best_seconds = point.seconds;
    }
  }
  return frontier;
}

std::vector<CostTimePoint> epsilon_nondominated(
    std::vector<CostTimePoint> points, double eps_seconds, double eps_cost) {
  if (eps_seconds <= 0 || eps_cost <= 0)
    throw std::invalid_argument("epsilon_nondominated: epsilons must be > 0");
  if (points.empty()) return points;

  // Representative per box: the point closest to the box's ideal corner.
  struct Box {
    CostTimePoint representative;
    double distance;
  };
  std::map<std::pair<std::int64_t, std::int64_t>, Box> boxes;
  for (const auto& point : points) {
    const auto bs = static_cast<std::int64_t>(
        std::floor(point.seconds / eps_seconds));
    const auto bc =
        static_cast<std::int64_t>(std::floor(point.cost / eps_cost));
    const double ds = point.seconds / eps_seconds - static_cast<double>(bs);
    const double dc = point.cost / eps_cost - static_cast<double>(bc);
    const double distance = ds * ds + dc * dc;
    auto [it, inserted] = boxes.try_emplace(
        std::make_pair(bs, bc), Box{point, distance});
    if (!inserted && distance < it->second.distance)
      it->second = Box{point, distance};
  }

  // Dominance on box coordinates.
  std::vector<std::pair<std::pair<std::int64_t, std::int64_t>, CostTimePoint>>
      entries;
  entries.reserve(boxes.size());
  for (const auto& [coords, box] : boxes)
    entries.emplace_back(coords, box.representative);
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              if (a.first.second != b.first.second)
                return a.first.second < b.first.second;  // cost box asc
              return a.first.first < b.first.first;      // time box asc
            });
  std::vector<CostTimePoint> frontier;
  std::int64_t best_time_box = std::numeric_limits<std::int64_t>::max();
  for (const auto& [coords, representative] : entries) {
    if (coords.first < best_time_box) {
      frontier.push_back(representative);
      best_time_box = coords.first;
    }
  }
  return frontier;
}

}  // namespace celia::core
