// Example: a general-purpose CELIA command-line planner — the tool a
// downstream user would actually run. Wraps the full pipeline (profiling,
// characterization, exhaustive selection, Pareto filtering) behind flags.
//
// Usage:
//   example_celia_planner --app=galaxy --n=65536 --a=8000
//       --deadline=24 --budget=350 [--mode=per-category] [--seed=2017]
//       [--catalog=prices.csv] [--save-model=m.celia | --load-model=m.celia]
//       [--epsilon-hours=1 --epsilon-dollars=5] [--top=10] [--verbose]
//       [--api-faults=seed=7,throttle=0.2,transient=0.1]
//   example_celia_planner --app=oltp-aurora --n=1e9 --a=0.2 --dimensions
//       (vector demand: per-frontier-point bottleneck attribution)

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "cloud/api_faults.hpp"
#include "cloud/catalog_io.hpp"
#include "cloud/provider.hpp"
#include "core/celia.hpp"
#include "core/frontier_index.hpp"
#include "core/query.hpp"
#include "core/recommend.hpp"
#include "core/serialize.hpp"
#include "obs/metrics.hpp"
#include "serve/planner_service.hpp"
#include "serve/soak.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/logging.hpp"
#include "util/resilience.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

/// --serve --chaos: the deterministic self-healing soak (serve/soak.hpp)
/// as a demo — catalog price churn with feed faults and a brownout, a
/// poison query that quarantines and recovers, 2x overload, and a wedged
/// worker that is detached and respawned. Seed from CELIA_CHAOS_SEED or
/// --seed; the same seed replays the whole failure timeline
/// bit-identically (the README's degraded-serving quickstart).
int run_chaos_demo(const celia::util::CliParser& cli) {
  using namespace celia;

  serve::ChaosSoakOptions options;
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  if (const char* env = std::getenv("CELIA_CHAOS_SEED");
      env != nullptr && *env != '\0')
    options.seed = std::strtoull(env, nullptr, 10);

  std::cout << "chaos soak: seed " << options.seed << ", " << options.ticks
            << " simulated ticks (feed churn + faults + brownout, poison "
               "query, 2x overload, worker stall)\n\n";
  const serve::ChaosSoakReport report = serve::run_chaos_soak(options);

  util::TablePrinter table({"self-healing metric", "value"});
  table.set_right_aligned(1);
  const auto row = [&table](const char* name, std::uint64_t value) {
    table.add_row({name, util::format_with_commas(value)});
  };
  row("submitted", report.serve.submitted);
  row("answered (kPlanned)", report.outcomes_planned);
  row("  degraded-but-answered", report.degraded_answers);
  row("  max served staleness (us)", report.max_served_staleness_us);
  row("shed: feed past hard staleness cap", report.serve.shed_stale);
  row("shed: queue watermark (overload)", report.serve.shed_queue_full);
  row("quarantine: entries", report.serve.quarantine_entries);
  row("quarantine: fast-fail rejections", report.serve.quarantined);
  row("quarantine: recoveries", report.serve.quarantine_recoveries);
  row("plan retries granted / vetoed",
      report.serve.plan_retries);
  row("  retry-budget vetoes", report.serve.retry_vetoes);
  row("worker restarts",
      report.serve.worker_restarts + report.stall_restarts);
  row("feed deliveries applied", report.feed_deliveries);
  row("feed faults", report.feed_faults);
  row("watchdog degraded entries", report.watchdog.degraded_entries);
  row("watchdog recoveries", report.watchdog.recoveries);
  table.print(std::cout);
  std::cout << "replay digest: " << report.digest
            << " (same seed => same digest, bit for bit)\n";

  for (const std::string& violation : report.violations)
    std::cerr << "SOAK VIOLATION: " << violation << "\n";
  if (report.violations.empty())
    std::cout << "self-healing contract held: live, staleness-bounded, "
                 "quarantine converged, worker respawned\n";
  return report.violations.empty() ? 0 : 1;
}

/// --serve: synthetic open-loop load against a PlannerService fronting
/// the model's catalog (the "Serving quickstart" in README.md). Two
/// tenants — interactive (weight 2, tight per-request deadlines) and
/// batch (weight 1) — submit a rotating mix of index-eligible and
/// risk-aware queries at a fixed aggregate rate.
int run_serve_demo(const celia::core::Celia& celia,
                   std::shared_ptr<const celia::cloud::Catalog> catalog,
                   const celia::apps::AppParams& params,
                   const celia::util::CliParser& cli) {
  using namespace celia;

  const double seconds = cli.get_double("serve-seconds");
  const double rate = cli.get_double("serve-rate");
  const auto workers = static_cast<std::size_t>(cli.get_int("serve-workers"));
  const double slo_ms = cli.get_double("serve-slo-ms");
  if (seconds <= 0 || rate <= 0 || workers < 1 || slo_ms <= 0) {
    std::cerr << "--serve needs positive --serve-seconds, --serve-rate, "
                 "--serve-workers and --serve-slo-ms\n";
    return 1;
  }

  core::PlannerEngine engine;
  engine.add_catalog("live", std::move(catalog));

  // One explicit clock shared by the service and the load generator, so
  // per-request deadlines line up with admission decisions.
  const auto epoch = std::chrono::steady_clock::now();
  const auto clock = [epoch] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
  };

  const double base_demand = celia.predict_demand(params);
  core::Constraints plain;
  plain.deadline_seconds = 24 * 3600.0;
  core::SweepOptions no_pareto;
  no_pareto.collect_pareto = false;

  // Warm the demand-invariant frontier index once, timed: the measured
  // build cost doubles as the service's PlanBudget estimate, so queries
  // whose remaining deadline cannot afford a rebuild or a full sweep are
  // routed down the degradation ladder instead of monopolizing a worker.
  util::Stopwatch warm;
  (void)engine.plan("live", celia.capacity(),
                    core::Query::make(base_demand, plain, no_pareto));
  const double full_work_seconds = warm.elapsed_ms() / 1e3;
  std::cout << "index warmed in "
            << util::format_fixed(full_work_seconds * 1e3, 0)
            << " ms (PlanBudget cost estimate)\n";

  serve::ServiceOptions options;
  options.num_workers = workers;
  options.queue_capacity = 256;
  options.shed_watermark = 16;
  options.latency_slo_seconds = slo_ms / 1e3;
  options.slo_probe_stride = 32;
  options.index_build_cost_seconds = full_work_seconds;
  options.sweep_cost_seconds = full_work_seconds;
  options.truncated_sweep_configs = 32768;
  options.clock = clock;
  serve::PlannerService service(engine, options);
  serve::TenantQuota interactive;
  interactive.weight = 2.0;
  service.set_tenant_quota("interactive", interactive);
  service.set_tenant_quota("batch", serve::TenantQuota{});

  std::cout << "serving: " << workers << " workers, open loop at "
            << util::format_fixed(rate, 0) << " req/s for "
            << util::format_fixed(seconds, 1) << " s, p99 SLO "
            << util::format_fixed(slo_ms, 1) << " ms\n";

  const double load_start = clock();
  const int total = static_cast<int>(seconds * rate);
  std::vector<std::future<serve::ServeOutcome>> futures;
  futures.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    const double due = load_start + static_cast<double>(i) / rate;
    while (clock() < due)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    core::Constraints constraints = plain;
    if (i % 8 == 0) {  // every eighth query is risk-aware (index-ineligible)
      constraints.confidence_z = 1.645;
      constraints.rate_sigma = 0.1;
    }
    // Interactive requests carry a tight deadline; batch a loose one.
    // Both are absolute times in the shared service clock.
    serve::PlanRequest request{
        i % 2 == 0 ? "interactive" : "batch", "live", celia.capacity(),
        core::Query::make(base_demand * (1.0 + 0.01 * (i % 64)), constraints,
                          no_pareto),
        util::DeadlineBudget::from_now(
            clock(), i % 2 == 0 ? 10 * slo_ms / 1e3 : 2.0)};
    futures.push_back(service.submit(std::move(request)));
  }

  std::uint64_t planned = 0, degraded = 0;
  std::vector<double> latencies;
  for (auto& future : futures) {
    const serve::ServeOutcome outcome = future.get();
    if (outcome.status != serve::ServeStatus::kPlanned) continue;
    ++planned;
    latencies.push_back(outcome.total_seconds * 1e3);
    degraded += outcome.result.route == core::QueryRoute::kDegradedSweep ||
                outcome.result.route == core::QueryRoute::kTruncatedSweep;
  }
  const double elapsed = clock() - load_start;
  service.stop();

  std::sort(latencies.begin(), latencies.end());
  const auto pct = [&latencies](double q) {
    if (latencies.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(latencies.size() - 1));
    return latencies[rank];
  };
  const serve::ServeStats stats = service.stats();
  util::TablePrinter table({"outcome", "count"});
  table.set_right_aligned(1);
  const auto row = [&table](const char* name, std::uint64_t count) {
    table.add_row({name, util::format_with_commas(count)});
  };
  row("submitted", stats.submitted);
  row("admitted (answered)", stats.admitted);
  row("  coalesced joins", stats.coalesced);
  row("  degraded-but-on-time", degraded);
  row("shed: queue watermark", stats.shed_queue_full);
  row("shed: latency SLO", stats.shed_slo);
  row("shed: deadline expired", stats.shed_deadline);
  row("rejected: tenant quota", stats.rejected_quota);
  table.print(std::cout);
  std::cout << "throughput   : "
            << util::format_fixed(static_cast<double>(planned) / elapsed, 0)
            << " planned/s\n"
            << "latency      : p50 " << util::format_fixed(pct(0.50), 2)
            << " ms, p99 " << util::format_fixed(pct(0.99), 2) << " ms\n";
  // The serving invariant, checked live: every submission landed in
  // exactly one terminal bucket.
  if (stats.admitted + stats.shed + stats.rejected_quota != stats.submitted) {
    std::cerr << "serving counter invariant VIOLATED\n";
    return 1;
  }
  if (cli.has("metrics")) {
    std::cout << "\n--- obs metrics ---\n";
    obs::dump_metrics(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace celia;

  util::CliParser cli("celia_planner",
                      "find cost-time Pareto-optimal cloud configurations "
                      "for an elastic application");
  cli.add_option("app",
                 "application: x264 | galaxy | sand | oltp | oltp-aurora | "
                 "oltp-socrates", "galaxy");
  cli.add_option("n", "problem size", "65536");
  cli.add_option("a",
                 "accuracy parameter (f / s / t; read fraction r for the "
                 "oltp family)", "8000");
  cli.add_option("deadline", "time deadline in hours", "24");
  cli.add_option("budget", "cost budget in dollars", "350");
  cli.add_option("mode",
                 "characterization: full | per-category | spec", "full");
  cli.add_option("seed", "cloud noise seed", "2017");
  cli.add_option("catalog",
                 "plan against a catalog loaded from this CSV or JSON file "
                 "instead of the built-in EC2 Table III", "");
  cli.add_option("epsilon-hours", "epsilon box height for frontier thinning "
                 "(0 = exact frontier)", "0");
  cli.add_option("epsilon-dollars", "epsilon box width", "5");
  cli.add_option("top", "max frontier rows to print", "20");
  cli.add_option("pick",
                 "recommend one frontier point: cheapest | fastest | "
                 "balanced | knee | none",
                 "knee");
  cli.add_option("save-model", "write the built model to this file", "");
  cli.add_option("load-model",
                 "skip measurement and load a model saved earlier", "");
  cli.add_option("api-faults",
                 "provision the recommended configuration against a faulty "
                 "control plane, e.g. seed=7,throttle=0.2,transient=0.1", "");
  cli.add_flag("index",
               "answer the query from a precomputed frontier index instead "
               "of a full sweep");
  cli.add_flag("dimensions",
               "attribute each frontier point to its binding bottleneck "
               "dimension (vector-demand apps plan over instructions, IO, "
               "network and memory at once)");
  cli.add_flag("serve",
               "run the planner as a service under synthetic open-loop load "
               "(admission control, coalescing, per-tenant fairness)");
  cli.add_flag("chaos",
               "with --serve: run the deterministic self-healing chaos soak "
               "(feed churn + faults, poison-query quarantine, worker "
               "stall/respawn, 2x overload) and report the recovery "
               "counters");
  cli.add_option("serve-seconds", "serving demo duration", "2");
  cli.add_option("serve-rate", "aggregate submission rate, req/s", "500");
  cli.add_option("serve-workers", "planner worker threads", "2");
  cli.add_option("serve-slo-ms", "p99 latency SLO in milliseconds", "50");
  cli.add_flag("metrics",
               "dump the obs metrics registry (Prometheus text format) "
               "after planning");
  cli.add_flag("verbose", "log model-building details");
  if (!cli.parse(argc, argv)) {
    std::cerr << "error: " << cli.error() << "\n\n";
    cli.print_usage(std::cerr);
    return 1;
  }
  if (cli.has("verbose")) util::Logger::set_level(util::LogLevel::kInfo);

  if (cli.has("chaos")) {
    if (!cli.has("serve")) {
      std::cerr << "--chaos is a serving demo; pass --serve --chaos\n";
      return 1;
    }
    // The soak builds its own engine/catalog/feed — no model needed.
    return run_chaos_demo(cli);
  }

  const auto app = apps::make_app(cli.get("app"));
  if (!app) {
    std::cerr << "unknown application '" << cli.get("app")
              << "' (expected x264, galaxy, sand or one of the oltp "
                 "family)\n";
    return 1;
  }
  core::CharacterizationMode mode = core::CharacterizationMode::kFullMeasurement;
  if (cli.get("mode") == "per-category")
    mode = core::CharacterizationMode::kPerCategory;
  else if (cli.get("mode") == "spec")
    mode = core::CharacterizationMode::kSpecFrequency;
  else if (cli.get("mode") != "full") {
    std::cerr << "unknown mode '" << cli.get("mode") << "'\n";
    return 1;
  }

  const apps::AppParams params{cli.get_double("n"), cli.get_double("a")};
  const double deadline = cli.get_double("deadline");
  const double budget = cli.get_double("budget");

  std::shared_ptr<const cloud::Catalog> catalog =
      cloud::Catalog::ec2_table3_ptr();
  if (const std::string path = cli.get("catalog"); !path.empty()) {
    try {
      catalog = std::make_shared<const cloud::Catalog>(
          cloud::load_catalog_file(path));
    } catch (const std::runtime_error& error) {
      std::cerr << error.what() << "\n";
      return 1;
    }
    std::cout << "catalog: " << catalog->name() << " (" << catalog->region()
              << "), " << catalog->size() << " instance types\n";
  }

  cloud::CloudProvider provider(
      static_cast<std::uint64_t>(cli.get_int("seed")), catalog);
  util::Stopwatch watch;
  const core::Celia celia = [&] {
    if (const std::string path = cli.get("load-model"); !path.empty()) {
      std::ifstream in(path);
      if (!in) {
        std::cerr << "cannot open model file " << path << "\n";
        std::exit(1);
      }
      CELIA_LOG_INFO << "loading model from " << path;
      core::Celia loaded = core::load_model(in);
      if (loaded.app_name() != app->name()) {
        std::cerr << "model file is for '" << loaded.app_name()
                  << "', not '" << app->name() << "'\n";
        std::exit(1);
      }
      return loaded;
    }
    CELIA_LOG_INFO << "building models ("
                   << core::characterization_mode_name(mode) << ")";
    core::Celia built = core::Celia::build(*app, provider, mode);
    if (app->demand_dimensions().size() == 1) return built;
    // Vector-demand app: lift the capacity to the app's full schema. The
    // measured instruction campaign stays dimension 0; IO/network/memory
    // rows come from the catalog's published attributes (DESIGN.md §11).
    core::ResourceCapacity vector_capacity =
        core::characterize_vector_capacity(*app, provider, mode);
    return core::Celia(std::string(built.app_name()), built.workload(),
                       built.demand_model(), std::move(vector_capacity),
                       built.space(), built.catalog_ptr());
  }();
  CELIA_LOG_INFO << "model ready after "
                 << util::format_fixed(watch.elapsed_ms(), 1) << " ms";
  if (!cli.get("catalog").empty() &&
      celia.catalog().fingerprint() != catalog->fingerprint()) {
    std::cerr << "model was built against catalog '"
              << celia.catalog().name() << "', not '" << catalog->name()
              << "' — rebuild it or drop --catalog\n";
    return 1;
  }
  if (const std::string path = cli.get("save-model"); !path.empty()) {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write model file " << path << "\n";
      return 1;
    }
    core::save_model(celia, out);
    std::cout << "model saved to " << path << "\n";
  }

  // Dimension count of the model we plan with: 1 for the paper's scalar
  // pipeline, >1 when the app declares a vector demand schema (or a v3
  // vector model was loaded).
  const std::size_t dims = celia.capacity().num_dimensions();

  if (cli.has("serve")) {
    if (dims > 1) {
      std::cerr << "--serve drives the scalar planning path; pick a 1-D "
                   "app (x264, galaxy, sand)\n";
      return 1;
    }
    return run_serve_demo(celia, catalog, params, cli);
  }

  // The demand the sweep answers for: the fitted scalar model in 1-D
  // (the paper's pipeline), the app's closed-form vector otherwise.
  const apps::DemandVector demand_vector =
      dims > 1 ? app->demand_vector(params)
               : apps::DemandVector::scalar(celia.predict_demand(params));

  std::cout << "CELIA plan for " << app->name() << "(n=" << params.n
            << ", " << app->accuracy_param_name() << "=" << params.a
            << ")\n"
            << "  demand model : " << fit::shape_name(
                   celia.demand_model().n_shape()) << " in n, "
            << fit::shape_name(celia.demand_model().a_shape())
            << " in accuracy (grid R^2 = "
            << util::format_fixed(celia.demand_model().grid_r2(), 4) << ")\n"
            << "  demand       : "
            << util::format_instructions(demand_vector[0]) << "\n";
  if (dims > 1) {
    std::cout << "  demand vector: ";
    for (std::size_t d = 1; d < dims; ++d)
      std::cout << (d > 1 ? ", " : "")
                << celia.capacity().dimensions().name(d) << " "
                << demand_vector[d];
    std::cout << "\n";
  }
  std::cout << "  constraints  : T' = " << deadline << " h, C' = "
            << util::format_money(budget) << "\n\n";

  core::SweepOptions sweep_options;
  std::optional<core::FrontierIndex> index;
  if (cli.has("index") && dims > 1) {
    std::cout << "frontier index: unavailable for vector demand (the "
                 "staircase is only demand-invariant in 1-D); sweeping\n";
  } else if (cli.has("index")) {
    watch.reset();
    index.emplace(core::FrontierIndex::build(celia.space(), celia.capacity(),
                                             celia.catalog()));
    std::cout << "frontier index: " << index->frontier().size()
              << " staircase entries over "
              << util::format_with_commas(index->attainable_configurations())
              << " attainable configurations ("
              << index->memory_bytes() / 1024 << " KiB), built in "
              << util::format_fixed(watch.elapsed_ms(), 0) << " ms\n";
    sweep_options.index_policy = core::IndexPolicy::Prefer(&*index);
  }

  watch.reset();
  const core::SweepResult result = [&] {
    if (dims == 1)
      return celia.select(params, deadline, budget, sweep_options);
    core::Constraints constraints;
    constraints.deadline_seconds = deadline * 3600.0;
    constraints.budget_dollars = budget;
    return core::sweep(celia.space(), celia.capacity(), celia.catalog(),
                       core::Query::make(demand_vector, constraints,
                                         sweep_options));
  }();
  std::cout << "route: " << core::query_route_name(result.route) << "\n";
  if (index) {
    std::cout << "answered from the index in "
              << util::format_fixed(watch.elapsed_ms() * 1000.0, 1)
              << " us; ";
  } else {
    std::cout << "swept " << util::format_with_commas(result.total)
              << " configurations in "
              << util::format_fixed(watch.elapsed_ms(), 0) << " ms; ";
  }
  std::cout << util::format_with_commas(result.feasible) << " feasible, "
            << result.pareto.size() << " Pareto-optimal\n\n";
  if (!result.any_feasible) {
    std::cout << "no feasible configuration — relax the deadline or "
                 "budget.\n";
    return 2;
  }

  std::vector<core::CostTimePoint> frontier = result.pareto;
  const double eps_hours = cli.get_double("epsilon-hours");
  if (eps_hours > 0) {
    frontier = core::epsilon_nondominated(
        frontier, eps_hours * 3600.0, cli.get_double("epsilon-dollars"));
    std::cout << "epsilon-thinned frontier: " << frontier.size()
              << " representatives\n";
  }

  // --dimensions: attribute every printed point (and the pick) to the
  // dimension whose D_d / U_{j,d} achieves the completion-time max.
  const bool report_dimensions = cli.has("dimensions");
  const auto dimensional = [&](std::uint64_t config_index) {
    return core::predict_vector(demand_vector,
                                celia.space().decode(config_index),
                                celia.capacity(), celia.catalog());
  };

  std::vector<std::string> headers{"Configuration", "time", "cost"};
  if (report_dimensions) headers.push_back("bottleneck");
  util::TablePrinter table(std::move(headers));
  table.set_right_aligned(1);
  table.set_right_aligned(2);
  const auto top = static_cast<std::size_t>(cli.get_int("top"));
  for (std::size_t i = 0; i < frontier.size() && i < top; ++i) {
    std::vector<std::string> row{
        core::to_string(celia.space().decode(frontier[i].config_index)),
        util::format_duration(frontier[i].seconds),
        util::format_money(frontier[i].cost)};
    if (report_dimensions)
      row.push_back(
          dimensional(frontier[i].config_index).binding_dimension_name);
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  if (frontier.size() > top)
    std::cout << "(" << frontier.size() - top << " more rows; --top to "
              << "print them)\n";

  // One-point recommendation off the exact frontier.
  const std::string pick_name = cli.get("pick");
  if (pick_name != "none") {
    core::PickStrategy strategy;
    if (pick_name == "cheapest") strategy = core::PickStrategy::kCheapest;
    else if (pick_name == "fastest") strategy = core::PickStrategy::kFastest;
    else if (pick_name == "balanced")
      strategy = core::PickStrategy::kBalanced;
    else if (pick_name == "knee") strategy = core::PickStrategy::kKnee;
    else {
      std::cerr << "unknown --pick strategy '" << pick_name << "'\n";
      return 1;
    }
    const core::CostTimePoint pick =
        core::pick_from_frontier(result.pareto, strategy);
    std::cout << "\nrecommended (" << pick_name << "): "
              << core::to_string(celia.space().decode(pick.config_index))
              << "  " << util::format_duration(pick.seconds) << "  "
              << util::format_money(pick.cost) << "\n";
    if (report_dimensions) {
      const core::DimensionalPrediction prediction =
          dimensional(pick.config_index);
      std::cout << "per-dimension completion time of the pick:\n";
      for (std::size_t d = 0; d < dims; ++d)
        std::cout << "  " << celia.capacity().dimensions().name(d) << " : "
                  << util::format_duration(
                         prediction.per_dimension_seconds[d])
                  << (d == prediction.binding_dimension ? "  <- binding"
                                                        : "")
                  << "\n";
    }
  }
  // Degraded-mode demo: replay provisioning of the min-cost pick against
  // a seeded control-plane fault schedule and report what was actually
  // obtained (see DESIGN.md §8, "Control plane vs data plane").
  if (const std::string spec = cli.get("api-faults"); !spec.empty()) {
    cloud::ResilientProvisionOptions options;
    std::size_t start = 0;
    while (start < spec.size()) {
      std::size_t end = spec.find(',', start);
      if (end == std::string::npos) end = spec.size();
      const std::string field = spec.substr(start, end - start);
      start = end + 1;
      const std::size_t eq = field.find('=');
      if (eq == std::string::npos) {
        std::cerr << "bad --api-faults field '" << field
                  << "' (expected key=value)\n";
        return 1;
      }
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      if (key == "seed")
        options.api_faults.seed = std::strtoull(value.c_str(), nullptr, 10);
      else if (key == "throttle")
        options.api_faults.throttle_probability = std::atof(value.c_str());
      else if (key == "transient")
        options.api_faults.transient_error_probability =
            std::atof(value.c_str());
      else {
        std::cerr << "unknown --api-faults key '" << key
                  << "' (seed, throttle, transient)\n";
        return 1;
      }
    }
    try {
      cloud::validate(options.api_faults, catalog.get());
    } catch (const std::invalid_argument& error) {
      std::cerr << error.what() << "\n";
      return 1;
    }
    const std::vector<int> counts =
        celia.space().decode(result.min_cost.config_index);
    const cloud::ProvisionOutcome outcome =
        provider.provision_resilient(counts, options);
    std::cout << "\n--- control-plane replay (min-cost pick) ---\n"
              << "api calls    : " << outcome.api.calls << " ("
              << outcome.api.throttled << " throttled, "
              << outcome.api.transient_errors << " transient)\n"
              << "backoff      : "
              << util::format_fixed(outcome.api.backoff_seconds, 1)
              << " s simulated\n"
              << "fleet ready  : " << (outcome.complete ? "complete" :
                                       "INCOMPLETE") << " at t+"
              << util::format_fixed(outcome.finished_at, 1) << " s\n";
    for (const cloud::ApiError& error : outcome.errors)
      std::cout << "  [" << util::format_fixed(error.at_seconds, 1) << " s] "
                << cloud::api_error_name(error.kind) << ": "
                << error.message << "\n";
  }
  if (cli.has("metrics")) {
    std::cout << "\n--- obs metrics ---\n";
    obs::dump_metrics(std::cout);
  }
  return 0;
}
