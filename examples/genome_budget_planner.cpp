// Example: trading result accuracy for cost in genome assembly (the sand
// scenario — the paper's application-elasticity pitch).
//
// A lab has a fixed budget and deadline for assembling a large read set.
// Because sand's demand grows only logarithmically with the quality
// threshold t, accuracy is cheap at the top of the range: this example
// finds the highest affordable t, prints the whole accuracy-cost ladder,
// and compares full vs per-category characterization on the final plan.

#include <iostream>
#include <optional>

#include "apps/registry.hpp"
#include "cloud/provider.hpp"
#include "core/celia.hpp"
#include "core/frontier_index.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main() {
  using namespace celia;

  constexpr double kReads = 1024e6;   // 1024 million candidate sequences
  constexpr double kDeadline = 24.0;  // hours
  constexpr double kBudget = 16.0;    // dollars

  cloud::CloudProvider provider(2017);
  const auto app = apps::make_sand();
  const core::Celia celia = core::Celia::build(*app, provider);

  std::cout << "sand: " << util::format_si(kReads, 0)
            << " reads, deadline " << kDeadline << " h, budget "
            << util::format_money(kBudget) << "\n\n";

  // The ladder fires a dozen queries at one fixed model: build the
  // frontier index once and answer them all from it.
  const core::FrontierIndex index = core::FrontierIndex::build(
      celia.space(), celia.capacity(), celia.catalog());
  core::SweepOptions fast;
  fast.index_policy = core::IndexPolicy::Prefer(&index);

  // 1. The accuracy-cost ladder: min cost per quality threshold.
  const double thresholds[] = {0.01, 0.02, 0.04, 0.08, 0.16,
                               0.32, 0.64, 0.8, 1.0};
  util::TablePrinter ladder(
      {"quality t", "min cost", "within budget?", "configuration"});
  ladder.set_right_aligned(1);
  double best_t = 0.0;
  std::optional<core::CostTimePoint> best_plan;
  for (const double t : thresholds) {
    const auto best =
        celia.min_cost_configuration({kReads, t}, kDeadline, fast);
    const bool affordable = best && best->cost <= kBudget;
    if (affordable && t > best_t) {
      best_t = t;
      best_plan = best;
    }
    ladder.add_row(
        {util::format_fixed(t, 2),
         best ? util::format_money(best->cost) : "infeasible",
         affordable ? "yes" : "no",
         best ? core::to_string(celia.space().decode(best->config_index))
              : "-"});
  }
  ladder.print(std::cout);

  if (!best_plan) {
    std::cout << "\nno quality level fits the budget — relax a constraint.\n";
    return 0;
  }
  std::cout << "\nhighest affordable quality: t = " << best_t << " at "
            << util::format_money(best_plan->cost) << " ("
            << util::format_duration(best_plan->seconds) << ")\n";

  // 2. The elasticity headline: the last 1.6x of accuracy is cheap.
  const auto at_064 =
      celia.min_cost_configuration({kReads, 0.64}, kDeadline, fast);
  const auto at_100 =
      celia.min_cost_configuration({kReads, 1.0}, kDeadline, fast);
  if (at_064 && at_100) {
    std::cout << "accuracy 0.64 -> 1.0 (1.6x better results) costs only +"
              << util::format_percent(at_100->cost / at_064->cost - 1.0)
              << " (paper: ~+20%)\n";
  }

  // 3. Would the cheaper per-category characterization (paper §IV-C) have
  //    chosen a different plan?
  cloud::CloudProvider provider2(2017);
  const core::Celia celia_cat = core::Celia::build(
      *app, provider2, core::CharacterizationMode::kPerCategory);
  const auto plan_cat =
      celia_cat.min_cost_configuration({kReads, best_t}, kDeadline);
  std::cout << "\ncharacterization check (t = " << best_t << "):\n"
            << "  full measurement : "
            << core::to_string(celia.space().decode(best_plan->config_index))
            << " at " << util::format_money(best_plan->cost) << "\n"
            << "  per-category     : "
            << (plan_cat ? core::to_string(celia_cat.space().decode(
                               plan_cat->config_index)) +
                               " at " + util::format_money(plan_cat->cost)
                         : "infeasible")
            << "\n";
  return 0;
}
