// Microbenchmark M1: configuration-space enumeration throughput (the inner
// loop of Algorithm 1) and its thread scaling over the 10,077,695-point
// EC2 space.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "apps/demand.hpp"
#include "bench_io.hpp"
#include "cloud/catalog.hpp"
#include "core/enumerate.hpp"
#include "core/query.hpp"
#include "core/simd.hpp"

namespace {

using namespace celia::core;

ResourceCapacity bench_capacity() {
  return ResourceCapacity(
      std::vector<double>({1.38e9, 1.38e9, 1.38e9, 1.31e9, 1.31e9, 1.31e9,
                           1.09e9, 1.09e9, 1.09e9}),
      celia::cloud::Catalog::ec2_table3());
}

/// A synthetic catalog of `num_types` instance types: Table III extended
/// with repriced clones. The per-type limit shrinks as the catalog grows
/// (9 -> m=5, 12 -> m=3, 15 -> m=2) so each point sweeps a comparable
/// number of configurations (~10-17M) while scaling the TYPE axis — the
/// suffix-sum walk's per-configuration work is O(1) amortized but its
/// carry chains lengthen with M.
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

void BM_FullSweepFeasibility(benchmark::State& state) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = bench_capacity();
  celia::parallel::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  Constraints constraints;
  constraints.deadline_seconds = 24 * 3600.0;
  constraints.budget_dollars = 350.0;
  SweepOptions options;
  options.collect_pareto = false;
  options.pool = &pool;
  for (auto _ : state) {
    const SweepResult result =
        sweep(space, capacity, 9e15, constraints, options);
    benchmark::DoNotOptimize(result.feasible);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(space.size()));
}
BENCHMARK(BM_FullSweepFeasibility)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FullSweepWithPareto(benchmark::State& state) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto capacity = bench_capacity();
  Constraints constraints;
  constraints.deadline_seconds = 24 * 3600.0;
  constraints.budget_dollars = 350.0;
  for (auto _ : state) {
    const SweepResult result = sweep(space, capacity, 9e15, constraints);
    benchmark::DoNotOptimize(result.pareto.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(space.size()));
}
// Real time: the sweep runs on pool workers, so the main thread's CPU time
// would understate the per-iteration cost (and inflate items/s).
BENCHMARK(BM_FullSweepWithPareto)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_FullSweepCatalogScaling(benchmark::State& state) {
  const celia::cloud::Catalog catalog =
      bench_catalog(static_cast<std::size_t>(state.range(0)));
  const auto space = ConfigurationSpace::for_catalog(catalog);
  const auto capacity = bench_capacity(catalog);
  Constraints constraints;
  constraints.deadline_seconds = 24 * 3600.0;
  constraints.budget_dollars = 350.0;
  SweepOptions options;
  options.collect_pareto = false;
  const Query query = Query::make(9e15, constraints, options);
  for (auto _ : state) {
    const SweepResult result = sweep(space, capacity, catalog, query);
    benchmark::DoNotOptimize(result.feasible);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(space.size()));
  state.counters["configs"] = static_cast<double>(space.size());
}
BENCHMARK(BM_FullSweepCatalogScaling)->Arg(9)->Arg(12)->Arg(15)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// The vector-demand model the dimension-scaling axes share: row 0 is the
/// scalar benchmark capacity; further rows vary by type so the binding
/// dimension actually shifts across the space. Per-dimension demand is
/// scaled to the same ~hours completion time as the scalar baseline so
/// the feasibility mix stays comparable.
struct DimensionModel {
  ResourceCapacity capacity;
  Query query;
};

DimensionModel dimension_model(std::size_t num_dims) {
  const auto& catalog = celia::cloud::Catalog::ec2_table3();
  std::vector<std::string> names{"instructions"};
  const char* extra[] = {"io_ops", "net_bytes", "mem_bytes"};
  for (std::size_t d = 1; d < num_dims; ++d)
    names.emplace_back(extra[d - 1]);
  celia::apps::DemandDimensions schema(std::move(names));

  const double per_vcpu_base[] = {1.38e9, 2.0e4, 6.25e7, 4.0e8};
  std::vector<std::vector<double>> rates;
  celia::apps::DemandVector demand;
  for (std::size_t d = 0; d < num_dims; ++d) {
    std::vector<double> row(catalog.size());
    for (std::size_t i = 0; i < catalog.size(); ++i)
      row[i] = per_vcpu_base[d] * (1.0 - 0.05 * static_cast<double>(i % 3));
    rates.push_back(std::move(row));
    // ~9e15 instructions takes hours on these fleets; match that scale
    // per dimension, skewed so no single dimension always binds.
    demand.values.push_back(9e15 / 1.38e9 * per_vcpu_base[d] *
                            (0.9 + 0.1 * static_cast<double>(d)));
  }
  Constraints constraints;
  constraints.deadline_seconds = 24 * 3600.0;
  constraints.budget_dollars = 350.0;
  SweepOptions options;
  options.collect_pareto = false;
  return DimensionModel{
      ResourceCapacity(std::move(schema), std::move(rates), catalog),
      Query::make(demand, constraints, options)};
}

/// Vector-demand sweep cost vs dimension count over the full EC2 space.
/// 1-D queries route through the scalar suffix-sum walk unchanged; >= 2
/// dimensions pay the per-dimension max in the multi-dimensional walk, so
/// this axis prices the bottleneck-feasibility generalization (DESIGN.md
/// §11).
void BM_FullSweepDimensionScaling(benchmark::State& state) {
  const auto space = ConfigurationSpace::ec2_default();
  const auto& catalog = celia::cloud::Catalog::ec2_table3();
  const DimensionModel model =
      dimension_model(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const SweepResult result =
        sweep(space, model.capacity, catalog, model.query);
    benchmark::DoNotOptimize(result.feasible);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(space.size()));
}
BENCHMARK(BM_FullSweepDimensionScaling)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// The SoA kernel dispatch axis: the same single-threaded sweep with the
/// runtime dispatch pinned to the portable scalar kernels vs the best
/// detected SIMD level, over 1/2/4 demand dimensions. Args are
/// {num_dims, forced_scalar}; the label names the level actually used, so
/// the BENCH json carries the dispatch alongside the milliseconds.
void BM_FullSweepSimdDispatch(benchmark::State& state) {
  namespace simd = celia::core::simd;
  const auto space = ConfigurationSpace::ec2_default();
  const auto& catalog = celia::cloud::Catalog::ec2_table3();
  const DimensionModel model =
      dimension_model(static_cast<std::size_t>(state.range(0)));
  celia::parallel::ThreadPool pool(1);
  SweepOptions options = model.query.options();
  options.pool = &pool;
  const Query query = model.query.with_options(options);

  const simd::Level before = simd::active_level();
  const simd::Level level = state.range(1) != 0
                                ? simd::Level::kScalar
                                : simd::detected_level();
  simd::set_level(level);
  state.SetLabel(std::string(simd::level_name(simd::active_level())));
  for (auto _ : state) {
    const SweepResult result = sweep(space, model.capacity, catalog, query);
    benchmark::DoNotOptimize(result.feasible);
  }
  simd::set_level(before);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(space.size()));
}
BENCHMARK(BM_FullSweepSimdDispatch)
    ->Args({1, 0})->Args({1, 1})
    ->Args({2, 0})->Args({2, 1})
    ->Args({4, 0})->Args({4, 1})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_DecodeEncode(benchmark::State& state) {
  const auto space = ConfigurationSpace::ec2_default();
  std::uint64_t index = 12345;
  for (auto _ : state) {
    const Configuration config = space.decode(index % space.size());
    benchmark::DoNotOptimize(space.encode(config));
    index = index * 6364136223846793005ULL + 1442695040888963407ULL;
  }
}
BENCHMARK(BM_DecodeEncode);

}  // namespace

CELIA_BENCHMARK_MAIN("enumeration");
