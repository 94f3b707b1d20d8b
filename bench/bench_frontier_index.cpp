// Microbenchmark M6: the demand-invariant FrontierIndex — build cost, per-
// query latency and queries/second against the full-sweep baseline over the
// 10,077,695-point EC2 space. The headline: a planner query answered from
// the index runs in microseconds where a sweep takes tens of milliseconds.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench_io.hpp"
#include "cloud/catalog.hpp"
#include "core/enumerate.hpp"
#include "core/frontier_index.hpp"
#include "obs/trace.hpp"

namespace {

using namespace celia::core;

ResourceCapacity bench_capacity() {
  return ResourceCapacity(
      std::vector<double>({1.38e9, 1.38e9, 1.38e9, 1.31e9, 1.31e9, 1.31e9,
                           1.09e9, 1.09e9, 1.09e9}),
      celia::cloud::Catalog::ec2_table3());
}

/// Synthetic catalog of `num_types` types: Table III plus repriced clones,
/// with the per-type limit shrinking (9 -> 5, 12 -> 3, 15 -> 2) so every
/// point enumerates a comparable ~10-17M configurations while scaling the
/// type axis. Mirrors bench_enumeration so the two binaries' scaling
/// curves are directly comparable.
celia::cloud::Catalog bench_catalog(std::size_t num_types) {
  const auto& table3 = celia::cloud::Catalog::ec2_table3();
  std::vector<celia::cloud::InstanceType> types(table3.types().begin(),
                                                table3.types().end());
  while (types.size() < num_types) {
    celia::cloud::InstanceType extra = types[types.size() % table3.size()];
    extra.name = "synth" + std::to_string(types.size()) + "." + extra.name;
    extra.cost_per_hour *= 1.0 + 0.01 * static_cast<double>(types.size());
    types.push_back(std::move(extra));
  }
  const int limit = num_types <= 9 ? 5 : (num_types <= 12 ? 3 : 2);
  return celia::cloud::Catalog(
      "bench-" + std::to_string(num_types), "bench", std::move(types),
      std::vector<int>(num_types, limit));
}

ResourceCapacity bench_capacity(const celia::cloud::Catalog& catalog) {
  std::vector<double> per_vcpu(catalog.size());
  for (std::size_t i = 0; i < per_vcpu.size(); ++i)
    per_vcpu[i] = 1.38e9 - 3.2e7 * static_cast<double>(i % 9);
  return ResourceCapacity(std::move(per_vcpu), catalog);
}

Constraints bench_constraints() {
  Constraints constraints;
  constraints.deadline_seconds = 24 * 3600.0;
  constraints.budget_dollars = 350.0;
  return constraints;
}

void BM_IndexBuild(benchmark::State& state) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = bench_capacity();
  const std::vector<double> hourly = ec2_hourly_costs();
  celia::parallel::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  FrontierIndex::BuildOptions options;
  options.pool = &pool;
  // The build's per-pass child spans become per-iteration counters, so the
  // JSON trail carries the pass split next to the total.
  const bool was_tracing = celia::obs::tracing_enabled();
  celia::obs::clear_trace();
  celia::obs::set_tracing_enabled(true);
  for (auto _ : state) {
    const FrontierIndex index =
        FrontierIndex::build(space, capacity, hourly, options);
    benchmark::DoNotOptimize(index.frontier().size());
  }
  celia::obs::set_tracing_enabled(was_tracing);
  std::map<std::string, double> pass_ms;
  for (const auto& event : celia::obs::trace_snapshot())
    if (event.name.starts_with("frontier_build."))
      pass_ms[event.name.substr(15) + "_ms"] +=
          static_cast<double>(event.dur_us) / 1e3;
  celia::obs::clear_trace();
  for (const auto& [name, ms] : pass_ms)
    state.counters[name] = ms / static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(space.size()));
}
BENCHMARK(BM_IndexBuild)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_IndexBuildCatalogScaling(benchmark::State& state) {
  const celia::cloud::Catalog catalog =
      bench_catalog(static_cast<std::size_t>(state.range(0)));
  const auto space = ConfigurationSpace::for_catalog(catalog);
  const auto capacity = bench_capacity(catalog);
  for (auto _ : state) {
    const FrontierIndex index =
        FrontierIndex::build(space, capacity, catalog);
    benchmark::DoNotOptimize(index.frontier().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(space.size()));
  state.counters["configs"] = static_cast<double>(space.size());
}
BENCHMARK(BM_IndexBuildCatalogScaling)->Arg(9)->Arg(12)->Arg(15)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_IndexQueryCatalogScaling(benchmark::State& state) {
  // Query latency is O(log frontier), so it should stay flat in microseconds
  // as the catalog grows — that invariance is the point of the index.
  const celia::cloud::Catalog catalog =
      bench_catalog(static_cast<std::size_t>(state.range(0)));
  const auto space = ConfigurationSpace::for_catalog(catalog);
  const auto capacity = bench_capacity(catalog);
  const FrontierIndex index = FrontierIndex::build(space, capacity, catalog);
  const Constraints constraints = bench_constraints();
  double demand = 9e15;
  for (auto _ : state) {
    const SweepResult result =
        index.query(demand, constraints, /*collect_pareto=*/false);
    benchmark::DoNotOptimize(result.feasible);
    demand += 1e9;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["frontier"] = static_cast<double>(index.frontier().size());
}
BENCHMARK(BM_IndexQueryCatalogScaling)->Arg(9)->Arg(12)->Arg(15)
    ->Unit(benchmark::kMicrosecond);

void BM_IndexQueryFeasibility(benchmark::State& state) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = bench_capacity();
  const std::vector<double> hourly = ec2_hourly_costs();
  const FrontierIndex index = FrontierIndex::build(space, capacity, hourly);
  const Constraints constraints = bench_constraints();
  double demand = 9e15;
  for (auto _ : state) {
    const SweepResult result =
        index.query(demand, constraints, /*collect_pareto=*/false);
    benchmark::DoNotOptimize(result.feasible);
    demand += 1e9;  // vary the query so nothing is cached across iterations
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IndexQueryFeasibility)->Unit(benchmark::kMicrosecond);

void BM_IndexQueryPareto(benchmark::State& state) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = bench_capacity();
  const std::vector<double> hourly = ec2_hourly_costs();
  const FrontierIndex index = FrontierIndex::build(space, capacity, hourly);
  const Constraints constraints = bench_constraints();
  double demand = 9e15;
  for (auto _ : state) {
    const SweepResult result = index.query(demand, constraints);
    benchmark::DoNotOptimize(result.pareto.size());
    demand += 1e9;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IndexQueryPareto)->Unit(benchmark::kMicrosecond);

/// 4,096 distinct seeded queries drawn as the end-to-end benchmark draws
/// its served mix: demand scaled by 2^U(-2, 2), deadline and budget drawn
/// between the unconstrained cheapest and fastest points and scaled with
/// the demand.
std::vector<std::pair<double, Constraints>> distinct_queries(
    const FrontierIndex& index, double base_demand) {
  const SweepResult probe = index.query(base_demand, Constraints{}, false);
  const CostTimePoint& cheapest = probe.min_cost;
  const CostTimePoint& fastest = probe.min_time;
  std::mt19937_64 rng(20170805);
  const auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  std::vector<std::pair<double, Constraints>> queries(4096);
  for (auto& [demand, c] : queries) {
    const double scale = std::exp2(uniform(-2.0, 2.0));
    c.deadline_seconds =
        scale * uniform(1.2 * fastest.seconds, 1.5 * cheapest.seconds);
    c.budget_dollars = scale * uniform(1.2 * cheapest.cost, 1.5 * fastest.cost);
    demand = base_demand * scale;
  }
  return queries;
}

void BM_IndexQueryDistinct(benchmark::State& state) {
  // Arg(0): a fresh index. Arg(1): the index repriced() returns after one
  // in-band tick (each price +-2%), the one the engine serves after every
  // price move. Unlike the repeated queries above, every iteration asks a
  // different question, so the partial strips it scans are cold.
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = bench_capacity();
  const std::vector<double> hourly = ec2_hourly_costs();
  const FrontierIndex fresh = FrontierIndex::build(space, capacity, hourly);
  std::optional<FrontierIndex> repriced;
  if (state.range(0) == 1) {
    std::vector<double> tick = hourly;
    for (std::size_t i = 0; i < tick.size(); ++i)
      tick[i] *= i % 2 == 0 ? 1.02 : 0.98;
    repriced = fresh.repriced(std::span<const double>(tick));
    if (!repriced) {
      state.SkipWithError("reprice delta refused an in-band tick");
      return;
    }
  }
  const FrontierIndex& index = repriced ? *repriced : fresh;
  const auto queries = distinct_queries(index, 9e15);
  std::vector<double> us;
  std::size_t next = 0;
  for (auto _ : state) {
    const auto& [demand, constraints] = queries[next++ % queries.size()];
    const auto t0 = std::chrono::steady_clock::now();
    const SweepResult result =
        index.query(demand, constraints, /*collect_pareto=*/false);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(result.feasible);
    us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  std::sort(us.begin(), us.end());
  if (!us.empty()) {
    state.counters["p50_us"] = us[us.size() / 2];
    state.counters["p99_us"] = us[us.size() * 99 / 100];
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IndexQueryDistinct)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_PreferIndexSweepFastPath(benchmark::State& state) {
  // sweep() with IndexPolicy::Prefer(&index): the indexed query plus
  // sweep()'s dispatch and matches() check. The index is built once,
  // outside the timed loop.
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = bench_capacity();
  const std::vector<double> hourly = ec2_hourly_costs();
  const Constraints constraints = bench_constraints();
  const FrontierIndex index = FrontierIndex::build(space, capacity, hourly);
  SweepOptions options;
  options.collect_pareto = false;
  options.index_policy = IndexPolicy::Prefer(&index);
  double demand = 9e15;
  for (auto _ : state) {
    const SweepResult result =
        sweep(space, capacity, hourly, demand, constraints, options);
    benchmark::DoNotOptimize(result.feasible);
    demand += 1e9;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PreferIndexSweepFastPath)->Unit(benchmark::kMicrosecond);

/// A deterministic price-churn trace: per-type multipliers in
/// [0.97, 1.03] of the anchor prices (seeded LCG), the bounded oscillation
/// a live spot/on-demand feed produces between structural catalog events.
/// Every tick stays inside FrontierIndex's provable reprice band, so the
/// delta path never refuses — the comparison below is pure rebuild-vs-
/// rescale cost per tick.
std::vector<std::vector<double>> churn_trace(std::span<const double> anchor,
                                             std::size_t ticks) {
  std::vector<std::vector<double>> trace(ticks);
  std::uint64_t lcg = 0x5DEECE66DULL;
  for (auto& hourly : trace) {
    hourly.assign(anchor.begin(), anchor.end());
    for (double& price : hourly) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      const double unit = static_cast<double>(lcg >> 11) * 0x1.0p-53;
      price *= 0.97 + 0.06 * unit;
    }
  }
  return trace;
}

void BM_PriceChurnFullRebuild(benchmark::State& state) {
  // The pre-delta behavior: every price tick pays a full enumeration of
  // the 10M-point space to refresh the index.
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = bench_capacity();
  const auto trace = churn_trace(ec2_hourly_costs(), 64);
  std::size_t tick = 0;
  for (auto _ : state) {
    const FrontierIndex rebuilt =
        FrontierIndex::build(space, capacity, trace[tick % trace.size()]);
    benchmark::DoNotOptimize(rebuilt.frontier().size());
    ++tick;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PriceChurnFullRebuild)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PriceChurnDeltaRescale(benchmark::State& state) {
  // Delta maintenance: the same trace absorbed by repriced() — refold the
  // wide candidate set, re-filter the staircase, reuse the anchor grid.
  // The acceptance bar is >= 10x cheaper per tick than the rebuild above.
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = bench_capacity();
  const std::vector<double> hourly = ec2_hourly_costs();
  const FrontierIndex anchor = FrontierIndex::build(space, capacity, hourly);
  const auto trace = churn_trace(hourly, 64);
  std::size_t tick = 0;
  for (auto _ : state) {
    const auto delta =
        anchor.repriced(std::span<const double>(trace[tick % trace.size()]));
    if (!delta.has_value()) {
      state.SkipWithError("reprice delta refused an in-band tick");
      break;
    }
    benchmark::DoNotOptimize(delta->frontier().size());
    ++tick;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PriceChurnDeltaRescale)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FullSweepBaseline(benchmark::State& state) {
  // Same query answered the pre-index way (single thread), for the in-
  // binary latency ratio against BM_IndexQueryFeasibility.
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = bench_capacity();
  const std::vector<double> hourly = ec2_hourly_costs();
  celia::parallel::ThreadPool pool(1);
  const Constraints constraints = bench_constraints();
  SweepOptions options;
  options.collect_pareto = false;
  options.pool = &pool;
  double demand = 9e15;
  for (auto _ : state) {
    const SweepResult result =
        sweep(space, capacity, hourly, demand, constraints, options);
    benchmark::DoNotOptimize(result.feasible);
    demand += 1e9;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FullSweepBaseline)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

CELIA_BENCHMARK_MAIN("frontier_index");
