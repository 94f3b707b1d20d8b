#include "core/risk.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "cloud/catalog.hpp"
#include "core/simd.hpp"
#include "core/sweep_plan.hpp"
#include "parallel/parallel_for.hpp"
#include "util/stats.hpp"

namespace celia::core {

std::string_view risk_model_name(RiskModel model) {
  switch (model) {
    case RiskModel::kNone:
      return "deterministic";
    case RiskModel::kSumCapacity:
      return "sum-capacity";
    case RiskModel::kBottleneck:
      return "bottleneck";
  }
  return "?";
}

std::optional<CostTimePoint> robust_min_cost(
    const ConfigurationSpace& space, const ResourceCapacity& capacity,
    double demand, double deadline_seconds, const RiskSpec& spec,
    parallel::ThreadPool* pool) {
  return robust_min_cost(space, capacity, cloud::Catalog::ec2_table3(),
                         demand, deadline_seconds, spec, pool);
}

std::optional<CostTimePoint> robust_min_cost(
    const ConfigurationSpace& space, const ResourceCapacity& capacity,
    const cloud::Catalog& catalog, double demand, double deadline_seconds,
    const RiskSpec& spec, parallel::ThreadPool* pool) {
  if (demand <= 0)
    throw std::invalid_argument("robust_min_cost: non-positive demand");
  if (spec.model != RiskModel::kNone &&
      (!(spec.confidence > 0 && spec.confidence < 1) || spec.sigma <= 0 ||
       spec.median_factor <= 0))
    throw std::invalid_argument("robust_min_cost: bad risk spec");
  if (space.num_types() != capacity.num_types() ||
      space.num_types() != catalog.size())
    throw std::invalid_argument("robust_min_cost: width mismatch");
  if (!capacity.compatible_with(catalog))
    throw std::invalid_argument(
        "robust_min_cost: capacity was characterized against a structurally "
        "different catalog than '" + catalog.name() + "'");

  const std::size_t m = space.num_types();
  const std::span<const double> catalog_hourly = catalog.hourly_costs();
  std::vector<double> rates(m), hourly(m), var_terms(m);
  for (std::size_t i = 0; i < m; ++i) {
    rates[i] = capacity.rate(i);
    hourly[i] = catalog_hourly[i];
    const double term = rates[i] * spec.sigma;
    var_terms[i] = term * term;
  }

  const double z = spec.model == RiskModel::kSumCapacity
                       ? util::normal_quantile(spec.confidence)
                       : 0.0;
  const double ln_confidence = std::log(spec.confidence);
  const double ln_median = std::log(spec.median_factor);

  // The risk walk IS the sweep walk: the same SweepPlan lanes (so kNone
  // reproduces sweep()'s doubles bit for bit) plus the exact integer
  // `instances` lane that feeds kBottleneck's lognormal tail bound.
  const SweepPlan plan(space, rates, hourly, var_terms,
                       /*track_instances=*/true);
  const bool use_kernel = spec.model == RiskModel::kNone;
  simd::ClassifyParams params;
  params.demand = demand;
  params.deadline = deadline_seconds;
  // kNone has no budget cut: +inf never rejects a finite cost, so the
  // shared classify kernel answers `u > 0 && demand / u < deadline`.
  params.budget = std::numeric_limits<double>::infinity();

  std::mutex merge_mutex;
  std::optional<CostTimePoint> best;

  parallel::ForOptions for_options;
  for_options.pool = pool;
  parallel::parallel_for_blocked(
      0, space.size(),
      [&](parallel::BlockedRange range) {
        if (range.empty()) return;
        std::optional<CostTimePoint> local;
        const auto note = [&](std::uint64_t index, double seconds,
                              double cost) {
          const CostTimePoint point{index, seconds, cost};
          if (!local || cheaper(point, *local)) local = point;
        };
        const auto consider = [&](std::uint64_t index, double u, double cu,
                                  double v, int instances) {
          if (u <= 0) return;
          bool feasible = false;
          switch (spec.model) {
            case RiskModel::kNone:
              feasible = demand / u < deadline_seconds;
              break;
            case RiskModel::kSumCapacity: {
              const double u_eff = spec.median_factor * (u - z * std::sqrt(v));
              feasible = u_eff > 0 && demand / u_eff < deadline_seconds;
              break;
            }
            case RiskModel::kBottleneck: {
              // Need min over `instances` lognormal factors >= x.
              const double x = demand / (u * deadline_seconds);
              if (x <= 0) {
                feasible = true;
              } else {
                const double tail = 1.0 - util::normal_cdf(
                                              (std::log(x) - ln_median) /
                                              spec.sigma);
                feasible =
                    tail > 0 && instances * std::log(tail) >= ln_confidence;
              }
              break;
            }
          }
          if (feasible) {
            const double seconds = demand / u;  // deterministic quote
            const double cost = seconds / 3600.0 * cu;
            note(index, seconds, cost);
          }
        };

        const simd::Kernels& kernels = simd::active_kernels();
        std::vector<double> seconds(use_kernel ? SweepPlan::kBatch : 0);
        std::vector<double> cost(use_kernel ? SweepPlan::kBatch : 0);
        std::vector<std::uint64_t> mask(use_kernel ? SweepPlan::kBatch / 64
                                                   : 0);
        plan.walk(range, [&](std::uint64_t first, std::size_t n,
                             const SweepPlan::Lanes& lanes) {
          if (use_kernel) {
            const std::size_t hits =
                kernels.classify(lanes.u(), lanes.cu, n, params,
                                 seconds.data(), cost.data(), mask.data());
            if (hits == 0) return;
            for (std::size_t w = 0; w < (n + 63) / 64; ++w) {
              std::uint64_t bits = mask[w];
              while (bits != 0) {
                const std::size_t j =
                    w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
                bits &= bits - 1;
                note(first + j, seconds[j], cost[j]);
              }
            }
            return;
          }
          const double* u = lanes.u();
          const double* v = lanes.v;  // nullptr when var_terms is all-zero
          for (std::size_t j = 0; j < n; ++j) {
            consider(first + j, u[j], lanes.cu[j], v != nullptr ? v[j] : 0.0,
                     lanes.instances[j]);
          }
        });

        if (local) {
          std::lock_guard<std::mutex> lock(merge_mutex);
          if (!best || cheaper(*local, *best)) best = local;
        }
      },
      for_options);
  return best;
}

}  // namespace celia::core
