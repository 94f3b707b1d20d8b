#pragma once
// Runtime-dispatched SIMD kernels for the configuration sweep.
//
// The sweep's inner loop classifies batches of configurations against the
// deadline/budget predicates (core/sweep_plan.hpp produces the batches).
// Each kernel exists in three variants — portable scalar, SSE2 (the
// x86-64 baseline) and AVX2 — compiled per-target with function target
// attributes in the Google-Highway HWY_ATTR style (one source body, one
// attributed symbol per instruction set, dispatch through a function
// table at runtime). Every operation used — divide, multiply, subtract,
// sqrt, max, compare — is exactly rounded under IEEE-754 and FMA
// contraction is never enabled, so all three variants produce
// BIT-IDENTICAL doubles; the vector width only changes how many elements
// are classified per instruction. tests/core_simd_test.cpp pins that
// equivalence and the hexfloat goldens in core_bit_identity_test.cpp pin
// it transitively for every planner entry point.
//
// Dispatch: the active level starts at min(detected, CELIA_SIMD) where the
// CELIA_SIMD environment variable may name "scalar", "sse2" or "avx2"
// (unknown values are ignored); set_simd_level() overrides it at runtime
// (clamped to the detected level) so tests and benches can force the
// scalar fallback and compare.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace celia::core::simd {

enum class Level : int {
  kScalar = 0,  // portable reference loop
  kSse2 = 1,    // 2 doubles / instruction (x86-64 baseline)
  kAvx2 = 2,    // 4 doubles / instruction
};

/// Best level this CPU supports (kSse2 at minimum on x86-64; kScalar on
/// other architectures).
Level detected_level();

/// The level the sweep kernels currently dispatch to: detected, capped by
/// the CELIA_SIMD environment variable at first use and by the most
/// recent set_level() call.
Level active_level();

/// Force a dispatch level (clamped to detected_level()); returns the level
/// actually installed. Thread-safe; affects subsequent sweeps process-wide.
Level set_level(Level level);

std::string_view level_name(Level level);

/// Parse "scalar" / "sse2" / "avx2"; returns false on unknown names.
bool level_from_name(std::string_view name, Level& out);

/// Scalar-demand classification parameters (see classify kernels).
struct ClassifyParams {
  double demand = 0.0;
  double deadline = 0.0;
  double budget = 0.0;
  double z = 0.0;  // confidence_z (risk kernel only)
};

/// classify: for each i < n compute seconds[i] = demand / u[i] and
/// cost[i] = seconds[i] / 3600.0 * cu[i] — the exact expression (and
/// rounding sequence) of the sweep's scalar inner loop — and set bit i of
/// mask_words (word w covers elements [64w, 64w+64)) iff
///   u[i] > 0 && seconds[i] < deadline && cost[i] < budget.
/// mask_words must hold (n + 63) / 64 words; they are overwritten.
/// Returns the number of set bits.
using ClassifyFn = std::size_t (*)(const double* u, const double* cu,
                                   std::size_t n, const ClassifyParams& params,
                                   double* seconds, double* cost,
                                   std::uint64_t* mask_words);

/// Risk-aware variant: the effective capacity u[i] - z * sqrt(v[i]) (v is
/// the capacity variance lane) replaces u[i] in the predicate above.
using ClassifyRiskFn = std::size_t (*)(const double* u, const double* v,
                                       const double* cu, std::size_t n,
                                       const ClassifyParams& params,
                                       double* seconds, double* cost,
                                       std::uint64_t* mask_words);

/// Multi-dimensional (bottleneck) variant: u_rows holds one capacity lane
/// per demand dimension (row d at u_rows + d * stride). For each element,
/// seconds = max over the listed active dimensions of demand[d] / u_d —
/// the same std::max fold order as the scalar sweep — and the element is
/// feasible iff seconds < deadline && cost < budget.
using ClassifyMultiFn = std::size_t (*)(
    const double* u_rows, std::size_t stride, const std::uint32_t* active,
    std::size_t num_active, const double* demand, const double* cu,
    std::size_t n, double deadline, double budget, double* seconds,
    double* cost, std::uint64_t* mask_words);

/// Parameters of the FrontierIndex partial-strip screen (see ScreenFn).
struct ScreenParams {
  double deadline = 0.0;
  double budget = 0.0;
  double d_pass = 0.0;  // demand * (1 + slack)
  double d_fail = 0.0;  // demand * (1 - slack)
  double c_pass = 0.0;  // demand / 3600 * (1 + slack)
  double c_fail = 0.0;  // demand / 3600 * (1 - slack)
  double u_lo = 0.0;    // points with U outside [u_lo, u_hi] are uncertain
  double u_hi = 0.0;
};

/// screen: a multiply-only certificate for the sweep predicate. With
/// tu = deadline * u[i] and bu = budget * u[i], element i (u_lo <= u[i] <=
/// u_hi) is
///   surely feasible    iff d_pass < tu && c_pass * cu[i] < bu,
///   surely infeasible  iff d_fail >= tu || c_fail * cu[i] >= bu.
/// Bit i of unsure_words is set iff element i is neither (or out of
/// range); unsure_words must hold (n + 63) / 64 words, overwritten.
/// Returns the number of surely feasible elements. Scalar and AVX2
/// variants only (the SSE2 table holds the scalar one).
using ScreenFn = std::size_t (*)(const double* u, const double* cu,
                                 std::size_t n, const ScreenParams& params,
                                 std::uint64_t* unsure_words);

struct Kernels {
  ClassifyFn classify = nullptr;
  ClassifyRiskFn classify_risk = nullptr;
  ClassifyMultiFn classify_multi = nullptr;
  ScreenFn screen = nullptr;
};

/// Kernel table for a specific level (always valid; levels above
/// detected_level() fall back to the best supported table).
const Kernels& kernels(Level level);

/// Kernel table for active_level() — what the sweep uses.
inline const Kernels& active_kernels() { return kernels(active_level()); }

}  // namespace celia::core::simd
