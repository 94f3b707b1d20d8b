// Example: exploring the cost-time Pareto frontier of an n-body simulation
// campaign (the galaxy scenario, paper §IV-E).
//
// A researcher wants the highest simulation accuracy (number of steps s)
// that fits a budget, and wants to see what relaxing the deadline buys.
// Demonstrates: the Pareto frontier, epsilon-thinning for human-sized
// summaries, accuracy scaling, and Observation 3 (tightening the deadline
// costs proportionally less than the time gained).

#include <iostream>

#include "apps/registry.hpp"
#include "cloud/provider.hpp"
#include "core/analysis.hpp"
#include "core/celia.hpp"
#include "core/frontier_index.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main() {
  using namespace celia;

  cloud::CloudProvider provider(2017);
  const auto app = apps::make_galaxy();
  const core::Celia celia = core::Celia::build(*app, provider);

  const apps::AppParams params{65536, 8000};
  std::cout << "galaxy(" << params.n << " masses, " << params.a
            << " steps), T' = 24 h, C' = $350\n\n";

  // 1. The full frontier is long; epsilon-thin it to a human-sized menu
  //    (the paper cites Woodruff & Herman's epsilon-nondomination sort).
  const core::SweepResult result = celia.select(params, 24.0, 350.0);
  const auto menu = core::epsilon_nondominated(result.pareto,
                                               /*eps_seconds=*/3600.0,
                                               /*eps_cost=*/5.0);
  std::cout << "Pareto frontier: " << result.pareto.size()
            << " configurations; epsilon-thinned menu (1 h x $5 boxes): "
            << menu.size() << "\n\n";
  util::TablePrinter table({"option", "configuration", "time", "cost"});
  table.set_right_aligned(2);
  table.set_right_aligned(3);
  for (std::size_t i = 0; i < menu.size(); ++i) {
    table.add_row({std::to_string(i + 1),
                   core::to_string(celia.space().decode(menu[i].config_index)),
                   util::format_duration(menu[i].seconds),
                   util::format_money(menu[i].cost)});
  }
  table.print(std::cout);

  // Every remaining query hits the same model, so answer them from one
  // frontier index (one build, microseconds per query) instead of
  // re-sweeping 10M configurations each time.
  const core::FrontierIndex index = core::FrontierIndex::build(
      celia.space(), celia.capacity(), celia.catalog());
  core::SweepOptions fast;
  fast.index_policy = core::IndexPolicy::Prefer(&index);

  // 2. How much accuracy can $100 buy within 24 h? Scan s downward.
  std::cout << "\nmax steps affordable at $100 / 24 h: ";
  double best_s = 0;
  for (double s = 10000; s >= 1000; s -= 500) {
    const auto best = celia.min_cost_configuration({params.n, s}, 24.0, fast);
    if (best && best->cost <= 100.0) {
      best_s = s;
      break;
    }
  }
  std::cout << (best_s > 0 ? util::format_si(best_s, 0) : "none") << "\n";

  // 3. Observation 3: the cost of a tighter deadline.
  const std::vector<double> deadlines = {72, 48, 24, 12, 8};
  const auto curve = core::deadline_tightening(celia, params, deadlines, fast);
  util::TablePrinter obs3({"deadline (h)", "min cost", "cost vs 72 h"});
  obs3.set_right_aligned(1);
  obs3.set_right_aligned(2);
  const double base = curve[0].feasible ? curve[0].min_cost : 0.0;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    obs3.add_row({util::format_fixed(deadlines[i], 0),
                  curve[i].feasible ? util::format_money(curve[i].min_cost)
                                    : "infeasible",
                  curve[i].feasible && base > 0
                      ? "+" + util::format_percent(curve[i].min_cost / base -
                                                   1.0)
                      : "-"});
  }
  std::cout << "\ndeadline tightening (Observation 3 — cost rises slower "
               "than the deadline shrinks):\n";
  obs3.print(std::cout);
  return 0;
}
