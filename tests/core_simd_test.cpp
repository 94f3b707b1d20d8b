// Tests for core/simd.hpp: the runtime-dispatched sweep kernels.
//
// The contract under test is BIT-IDENTITY: every vector variant (SSE2,
// AVX2) must produce exactly the scalar reference kernel's doubles and
// masks — same seconds, same cost, same feasible bits — because the sweep
// dispatches through these kernels and the planner's hexfloat goldens
// (core_bit_identity_test.cpp) pin its output to the last ulp. On a
// machine without AVX2 the higher tables alias the best supported one, so
// the comparisons degenerate to trivially-true rather than skipping.
//
// CI runs this suite (and the whole tier) twice: once with native
// dispatch and once with CELIA_SIMD=scalar, so a kernel bug cannot hide
// behind a matching bug in the reference loop.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "cloud/catalog.hpp"
#include "core/enumerate.hpp"
#include "core/query.hpp"
#include "core/simd.hpp"

namespace {

using namespace celia::core;
namespace simd = celia::core::simd;

/// Deterministic 64-bit LCG (MMIX constants); no <random> so the lane
/// contents are identical across platforms and standard libraries.
struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state;
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    const double unit =
        static_cast<double>(next() >> 11) * 0x1.0p-53;  // [0, 1)
    return lo + (hi - lo) * unit;
  }
};

/// Capacity/cost lanes of length n: mostly realistic magnitudes, with a
/// sprinkling of zero-capacity slots (infeasible-by-construction — the
/// u > 0 guard must mask them even though demand / 0 = inf compares fine).
struct Lanes {
  std::vector<double> u, v, cu;
  explicit Lanes(std::size_t n, std::uint64_t seed) : u(n), v(n), cu(n) {
    Lcg rng{seed};
    for (std::size_t i = 0; i < n; ++i) {
      u[i] = (rng.next() % 16 == 0) ? 0.0 : rng.uniform(1e8, 3e10);
      v[i] = rng.uniform(0.0, 1e17);
      cu[i] = rng.uniform(0.05, 40.0);
    }
  }
};

constexpr std::size_t kSizes[] = {0, 1, 3, 7, 64, 65, 130, 512};

const simd::Level kAllLevels[] = {simd::Level::kScalar, simd::Level::kSse2,
                                  simd::Level::kAvx2};

std::size_t mask_words_for(std::size_t n) { return (n + 63) / 64; }

TEST(Simd, LevelNamesRoundTrip) {
  EXPECT_EQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_EQ(simd::level_name(simd::Level::kSse2), "sse2");
  EXPECT_EQ(simd::level_name(simd::Level::kAvx2), "avx2");
  for (const simd::Level level : kAllLevels) {
    simd::Level parsed;
    ASSERT_TRUE(simd::level_from_name(simd::level_name(level), parsed));
    EXPECT_EQ(parsed, level);
  }
  simd::Level ignored;
  EXPECT_FALSE(simd::level_from_name("avx512", ignored));
  EXPECT_FALSE(simd::level_from_name("", ignored));
  EXPECT_FALSE(simd::level_from_name("Scalar", ignored));
}

TEST(Simd, SetLevelClampsToDetected) {
  const simd::Level detected = simd::detected_level();
  const simd::Level before = simd::active_level();
  EXPECT_LE(static_cast<int>(before), static_cast<int>(detected));

  EXPECT_EQ(simd::set_level(simd::Level::kScalar), simd::Level::kScalar);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);

  // Requesting more than the CPU has clamps to what it has.
  EXPECT_EQ(simd::set_level(simd::Level::kAvx2), detected);
  EXPECT_EQ(simd::active_level(), detected);

  simd::set_level(before);
  EXPECT_EQ(simd::active_level(), before);
}

TEST(Simd, KernelTablesAlwaysValid) {
  for (const simd::Level level : kAllLevels) {
    const simd::Kernels& table = simd::kernels(level);
    EXPECT_NE(table.classify, nullptr) << simd::level_name(level);
    EXPECT_NE(table.classify_risk, nullptr) << simd::level_name(level);
    EXPECT_NE(table.classify_multi, nullptr) << simd::level_name(level);
    EXPECT_NE(table.screen, nullptr) << simd::level_name(level);
  }
}

TEST(Simd, ScreenBitIdenticalAcrossLevels) {
  // The screen's verdicts at every level must equal the scalar reference's,
  // and its certified verdicts must agree with the exact predicate. The
  // deadline and budget sit mid-range, so all three verdicts occur; the
  // U range excludes the zero-capacity slots and a band of large U.
  const simd::Kernels& reference = simd::kernels(simd::Level::kScalar);
  for (const std::size_t n : kSizes) {
    const Lanes lanes(n, 0xD1B54A32D192ED03ULL + n);
    simd::ClassifyParams exact;
    exact.demand = 0x1.fbce5e08p+52;
    exact.deadline = 3.0e5;
    exact.budget = 60.0;
    // A wide slack makes uncertain verdicts common enough to compare.
    const double slack = 0.05;
    simd::ScreenParams params;
    params.deadline = exact.deadline;
    params.budget = exact.budget;
    params.d_pass = exact.demand * (1 + slack);
    params.d_fail = exact.demand * (1 - slack);
    params.c_pass = exact.demand / 3600.0 * (1 + slack);
    params.c_fail = exact.demand / 3600.0 * (1 - slack);
    params.u_lo = 1.0;
    params.u_hi = 2.5e10;

    std::vector<std::uint64_t> ref_unsure(mask_words_for(n) + 1, ~0ULL);
    const std::size_t ref_passed = reference.screen(
        lanes.u.data(), lanes.cu.data(), n, params, ref_unsure.data());
    std::vector<double> seconds(n), cost(n);
    std::vector<std::uint64_t> feasible(mask_words_for(n) + 1, 0);
    reference.classify(lanes.u.data(), lanes.cu.data(), n, exact,
                       seconds.data(), cost.data(), feasible.data());
    std::size_t certified_feasible = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool unsure = (ref_unsure[i / 64] >> (i % 64)) & 1;
      const bool ok = (feasible[i / 64] >> (i % 64)) & 1;
      if (!unsure) certified_feasible += ok;
      if (lanes.u[i] == 0.0) EXPECT_TRUE(unsure) << "n=" << n << " i=" << i;
    }
    // Every certified point's verdict is the exact one.
    EXPECT_EQ(ref_passed, certified_feasible) << "n=" << n;

    for (const simd::Level level : kAllLevels) {
      std::vector<std::uint64_t> unsure(mask_words_for(n) + 1, ~0ULL);
      const std::size_t passed = simd::kernels(level).screen(
          lanes.u.data(), lanes.cu.data(), n, params, unsure.data());
      EXPECT_EQ(passed, ref_passed) << simd::level_name(level) << " n=" << n;
      for (std::size_t w = 0; w < mask_words_for(n); ++w)
        EXPECT_EQ(unsure[w], ref_unsure[w])
            << simd::level_name(level) << " n=" << n << " word=" << w;
    }
  }
}

TEST(Simd, ClassifyBitIdenticalAcrossLevels) {
  const simd::Kernels& reference = simd::kernels(simd::Level::kScalar);
  for (const std::size_t n : kSizes) {
    const Lanes lanes(n, 0x9E3779B97F4A7C15ULL + n);
    simd::ClassifyParams params;
    params.demand = 0x1.fbce5e08p+52;  // the galaxy seed demand
    params.deadline = 24 * 3600.0;
    params.budget = 350.0;

    std::vector<double> ref_seconds(n), ref_cost(n);
    std::vector<std::uint64_t> ref_mask(mask_words_for(n) + 1, ~0ULL);
    const std::size_t ref_count =
        reference.classify(lanes.u.data(), lanes.cu.data(), n, params,
                           ref_seconds.data(), ref_cost.data(),
                           ref_mask.data());

    for (const simd::Level level : kAllLevels) {
      std::vector<double> seconds(n), cost(n);
      std::vector<std::uint64_t> mask(mask_words_for(n) + 1, ~0ULL);
      const std::size_t count =
          simd::kernels(level).classify(lanes.u.data(), lanes.cu.data(), n,
                                        params, seconds.data(), cost.data(),
                                        mask.data());
      EXPECT_EQ(count, ref_count) << simd::level_name(level) << " n=" << n;
      for (std::size_t w = 0; w < mask_words_for(n); ++w)
        EXPECT_EQ(mask[w], ref_mask[w])
            << simd::level_name(level) << " n=" << n << " word=" << w;
      for (std::size_t i = 0; i < n; ++i) {
        // EXPECT_EQ on doubles is exact — bit identity is the contract.
        EXPECT_EQ(seconds[i], ref_seconds[i])
            << simd::level_name(level) << " n=" << n << " i=" << i;
        EXPECT_EQ(cost[i], ref_cost[i])
            << simd::level_name(level) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Simd, ClassifyRiskBitIdenticalAcrossLevels) {
  const simd::Kernels& reference = simd::kernels(simd::Level::kScalar);
  for (const std::size_t n : kSizes) {
    const Lanes lanes(n, 0xD1B54A32D192ED03ULL + n);
    simd::ClassifyParams params;
    params.demand = 0x1.840e32004dfffp+49;  // the x264 seed demand
    params.deadline = 24 * 3600.0;
    params.budget = 350.0;
    params.z = 1.645;

    std::vector<double> ref_seconds(n), ref_cost(n);
    std::vector<std::uint64_t> ref_mask(mask_words_for(n) + 1, ~0ULL);
    const std::size_t ref_count = reference.classify_risk(
        lanes.u.data(), lanes.v.data(), lanes.cu.data(), n, params,
        ref_seconds.data(), ref_cost.data(), ref_mask.data());

    for (const simd::Level level : kAllLevels) {
      std::vector<double> seconds(n), cost(n);
      std::vector<std::uint64_t> mask(mask_words_for(n) + 1, ~0ULL);
      const std::size_t count = simd::kernels(level).classify_risk(
          lanes.u.data(), lanes.v.data(), lanes.cu.data(), n, params,
          seconds.data(), cost.data(), mask.data());
      EXPECT_EQ(count, ref_count) << simd::level_name(level) << " n=" << n;
      for (std::size_t w = 0; w < mask_words_for(n); ++w)
        EXPECT_EQ(mask[w], ref_mask[w])
            << simd::level_name(level) << " n=" << n << " word=" << w;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(seconds[i], ref_seconds[i])
            << simd::level_name(level) << " n=" << n << " i=" << i;
        EXPECT_EQ(cost[i], ref_cost[i])
            << simd::level_name(level) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Simd, ClassifyMultiBitIdenticalAcrossLevels) {
  const simd::Kernels& reference = simd::kernels(simd::Level::kScalar);
  constexpr std::size_t kDims = 4;
  // Active-dimension subsets exercise the max fold order: a single row,
  // a sparse pair, and all four in schema order.
  const std::vector<std::vector<std::uint32_t>> kActiveSets = {
      {0}, {1, 3}, {0, 1, 2, 3}};
  for (const std::size_t n : kSizes) {
    const std::size_t stride = n + 3;  // rows deliberately over-allocated
    std::vector<double> u_rows(kDims * stride, 0.0);
    Lcg rng{0xA0761D6478BD642FULL + n};
    for (std::size_t d = 0; d < kDims; ++d)
      for (std::size_t i = 0; i < n; ++i)
        u_rows[d * stride + i] =
            (rng.next() % 16 == 0) ? 0.0 : rng.uniform(1e3, 3e10);
    const Lanes lanes(n, 0xE7037ED1A0B428DBULL + n);
    const double demand[kDims] = {1e13, 2e7, 5e11, 0.0};
    const double deadline = 24 * 3600.0;
    const double budget = 350.0;

    for (const auto& active : kActiveSets) {
      std::vector<double> ref_seconds(n), ref_cost(n);
      std::vector<std::uint64_t> ref_mask(mask_words_for(n) + 1, ~0ULL);
      const std::size_t ref_count = reference.classify_multi(
          u_rows.data(), stride, active.data(), active.size(), demand,
          lanes.cu.data(), n, deadline, budget, ref_seconds.data(),
          ref_cost.data(), ref_mask.data());

      for (const simd::Level level : kAllLevels) {
        std::vector<double> seconds(n), cost(n);
        std::vector<std::uint64_t> mask(mask_words_for(n) + 1, ~0ULL);
        const std::size_t count = simd::kernels(level).classify_multi(
            u_rows.data(), stride, active.data(), active.size(), demand,
            lanes.cu.data(), n, deadline, budget, seconds.data(), cost.data(),
            mask.data());
        EXPECT_EQ(count, ref_count)
            << simd::level_name(level) << " n=" << n
            << " active=" << active.size();
        for (std::size_t w = 0; w < mask_words_for(n); ++w)
          EXPECT_EQ(mask[w], ref_mask[w])
              << simd::level_name(level) << " n=" << n << " word=" << w;
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(seconds[i], ref_seconds[i])
              << simd::level_name(level) << " n=" << n << " i=" << i;
          EXPECT_EQ(cost[i], ref_cost[i])
              << simd::level_name(level) << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(Simd, ForcedScalarSweepIsBitIdenticalEndToEnd) {
  // The whole-pipeline version of the kernel tests above: one real sweep
  // of a small Table III subspace under native dispatch and under the
  // forced scalar fallback must agree on every reported double.
  const ConfigurationSpace space(std::vector<int>(9, 3));
  const auto& catalog = celia::cloud::Catalog::ec2_table3();
  std::vector<double> per_vcpu(9);
  for (std::size_t i = 0; i < 9; ++i)
    per_vcpu[i] = 1.38e9 - 3.1e7 * static_cast<double>(i);
  const ResourceCapacity capacity(std::move(per_vcpu), catalog);
  Constraints constraints;
  constraints.deadline_seconds = 24 * 3600.0;
  constraints.budget_dollars = 350.0;
  const Query query = Query::make(5e14, constraints);

  const simd::Level before = simd::active_level();
  simd::set_level(simd::detected_level());
  const SweepResult native = sweep(space, capacity, catalog, query);
  simd::set_level(simd::Level::kScalar);
  const SweepResult scalar = sweep(space, capacity, catalog, query);
  simd::set_level(before);

  EXPECT_EQ(native.feasible, scalar.feasible);
  EXPECT_EQ(native.min_cost.config_index, scalar.min_cost.config_index);
  EXPECT_EQ(native.min_cost.seconds, scalar.min_cost.seconds);
  EXPECT_EQ(native.min_cost.cost, scalar.min_cost.cost);
  EXPECT_EQ(native.min_time.config_index, scalar.min_time.config_index);
  EXPECT_EQ(native.min_time.seconds, scalar.min_time.seconds);
  EXPECT_EQ(native.min_time.cost, scalar.min_time.cost);
  ASSERT_EQ(native.pareto.size(), scalar.pareto.size());
  for (std::size_t i = 0; i < native.pareto.size(); ++i) {
    EXPECT_EQ(native.pareto[i].config_index, scalar.pareto[i].config_index);
    EXPECT_EQ(native.pareto[i].seconds, scalar.pareto[i].seconds);
    EXPECT_EQ(native.pareto[i].cost, scalar.pareto[i].cost);
  }
}

}  // namespace
