#include "core/simd.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CELIA_SIMD_X86 1
// Per-target compilation in the Google-Highway HWY_ATTR idiom: one source
// body per kernel, one symbol per instruction set, selected through a
// function table at runtime. FMA is deliberately NOT enabled in the
// target sets — contraction would fuse div/mul or mul/sub chains and
// break bit-identity with the scalar reference.
#define CELIA_SIMD_ATTR_SSE2 __attribute__((target("sse2")))
#define CELIA_SIMD_ATTR_AVX2 __attribute__((target("avx2")))
#else
#define CELIA_SIMD_X86 0
#endif

namespace celia::core::simd {

namespace {

void zero_mask(std::uint64_t* mask_words, std::size_t n) {
  std::memset(mask_words, 0, ((n + 63) / 64) * sizeof(std::uint64_t));
}

// ---------------------------------------------------------------------------
// Scalar reference kernels. These ARE the semantics: the vector variants
// below must match them bit for bit (pinned by tests/core_simd_test.cpp).
// ---------------------------------------------------------------------------

std::size_t classify_scalar(const double* u, const double* cu, std::size_t n,
                            const ClassifyParams& p, double* seconds,
                            double* cost, std::uint64_t* mask_words) {
  zero_mask(mask_words, n);
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double s = p.demand / u[i];
    const double c = s / 3600.0 * cu[i];
    seconds[i] = s;
    cost[i] = c;
    if (u[i] > 0 && s < p.deadline && c < p.budget) {
      mask_words[i / 64] |= std::uint64_t{1} << (i % 64);
      ++count;
    }
  }
  return count;
}

std::size_t classify_risk_scalar(const double* u, const double* v,
                                 const double* cu, std::size_t n,
                                 const ClassifyParams& p, double* seconds,
                                 double* cost, std::uint64_t* mask_words) {
  zero_mask(mask_words, n);
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double ue = u[i] - p.z * std::sqrt(v[i]);
    const double s = p.demand / ue;
    const double c = s / 3600.0 * cu[i];
    seconds[i] = s;
    cost[i] = c;
    if (ue > 0 && s < p.deadline && c < p.budget) {
      mask_words[i / 64] |= std::uint64_t{1} << (i % 64);
      ++count;
    }
  }
  return count;
}

std::size_t classify_multi_scalar(const double* u_rows, std::size_t stride,
                                  const std::uint32_t* active,
                                  std::size_t num_active, const double* demand,
                                  const double* cu, std::size_t n,
                                  double deadline, double budget,
                                  double* seconds, double* cost,
                                  std::uint64_t* mask_words) {
  zero_mask(mask_words, n);
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t a = 0; a < num_active; ++a) {
      const double q = demand[active[a]] / u_rows[active[a] * stride + i];
      s = s < q ? q : s;  // std::max(s, q)
    }
    const double c = s / 3600.0 * cu[i];
    seconds[i] = s;
    cost[i] = c;
    if (s < deadline && c < budget) {
      mask_words[i / 64] |= std::uint64_t{1} << (i % 64);
      ++count;
    }
  }
  return count;
}

std::size_t screen_scalar(const double* u, const double* cu, std::size_t n,
                          const ScreenParams& p, std::uint64_t* unsure_words) {
  zero_mask(unsure_words, n);
  std::size_t passed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double tu = p.deadline * u[i];
    const double bu = p.budget * u[i];
    const bool in = p.u_lo <= u[i] && u[i] <= p.u_hi;
    const bool pass = in && p.d_pass < tu && p.c_pass * cu[i] < bu;
    const bool fail = in && (p.d_fail >= tu || p.c_fail * cu[i] >= bu);
    passed += pass;
    if (!pass && !fail) unsure_words[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  return passed;
}

#if CELIA_SIMD_X86

// ---------------------------------------------------------------------------
// SSE2 variants: 2 doubles per instruction. divpd/mulpd/sqrtpd/cmppd are
// exactly rounded, so results equal the scalar reference bitwise.
// ---------------------------------------------------------------------------

CELIA_SIMD_ATTR_SSE2 std::size_t classify_sse2(const double* u,
                                               const double* cu, std::size_t n,
                                               const ClassifyParams& p,
                                               double* seconds, double* cost,
                                               std::uint64_t* mask_words) {
  zero_mask(mask_words, n);
  const __m128d vd = _mm_set1_pd(p.demand);
  const __m128d vdl = _mm_set1_pd(p.deadline);
  const __m128d vb = _mm_set1_pd(p.budget);
  const __m128d vzero = _mm_setzero_pd();
  const __m128d v3600 = _mm_set1_pd(3600.0);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d vu = _mm_loadu_pd(u + i);
    const __m128d vs = _mm_div_pd(vd, vu);
    const __m128d vc = _mm_mul_pd(_mm_div_pd(vs, v3600), _mm_loadu_pd(cu + i));
    _mm_storeu_pd(seconds + i, vs);
    _mm_storeu_pd(cost + i, vc);
    const __m128d ok = _mm_and_pd(
        _mm_cmpgt_pd(vu, vzero),
        _mm_and_pd(_mm_cmplt_pd(vs, vdl), _mm_cmplt_pd(vc, vb)));
    const auto bits = static_cast<unsigned>(_mm_movemask_pd(ok));
    mask_words[i / 64] |= static_cast<std::uint64_t>(bits) << (i % 64);
    count += static_cast<std::size_t>(std::popcount(bits));
  }
  for (; i < n; ++i) {
    const double s = p.demand / u[i];
    const double c = s / 3600.0 * cu[i];
    seconds[i] = s;
    cost[i] = c;
    if (u[i] > 0 && s < p.deadline && c < p.budget) {
      mask_words[i / 64] |= std::uint64_t{1} << (i % 64);
      ++count;
    }
  }
  return count;
}

CELIA_SIMD_ATTR_SSE2 std::size_t classify_risk_sse2(
    const double* u, const double* v, const double* cu, std::size_t n,
    const ClassifyParams& p, double* seconds, double* cost,
    std::uint64_t* mask_words) {
  zero_mask(mask_words, n);
  const __m128d vd = _mm_set1_pd(p.demand);
  const __m128d vdl = _mm_set1_pd(p.deadline);
  const __m128d vb = _mm_set1_pd(p.budget);
  const __m128d vz = _mm_set1_pd(p.z);
  const __m128d vzero = _mm_setzero_pd();
  const __m128d v3600 = _mm_set1_pd(3600.0);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d vv = _mm_loadu_pd(v + i);
    const __m128d vue = _mm_sub_pd(_mm_loadu_pd(u + i),
                                   _mm_mul_pd(vz, _mm_sqrt_pd(vv)));
    const __m128d vs = _mm_div_pd(vd, vue);
    const __m128d vc = _mm_mul_pd(_mm_div_pd(vs, v3600), _mm_loadu_pd(cu + i));
    _mm_storeu_pd(seconds + i, vs);
    _mm_storeu_pd(cost + i, vc);
    const __m128d ok = _mm_and_pd(
        _mm_cmpgt_pd(vue, vzero),
        _mm_and_pd(_mm_cmplt_pd(vs, vdl), _mm_cmplt_pd(vc, vb)));
    const auto bits = static_cast<unsigned>(_mm_movemask_pd(ok));
    mask_words[i / 64] |= static_cast<std::uint64_t>(bits) << (i % 64);
    count += static_cast<std::size_t>(std::popcount(bits));
  }
  for (; i < n; ++i) {
    const double ue = u[i] - p.z * std::sqrt(v[i]);
    const double s = p.demand / ue;
    const double c = s / 3600.0 * cu[i];
    seconds[i] = s;
    cost[i] = c;
    if (ue > 0 && s < p.deadline && c < p.budget) {
      mask_words[i / 64] |= std::uint64_t{1} << (i % 64);
      ++count;
    }
  }
  return count;
}

CELIA_SIMD_ATTR_SSE2 std::size_t classify_multi_sse2(
    const double* u_rows, std::size_t stride, const std::uint32_t* active,
    std::size_t num_active, const double* demand, const double* cu,
    std::size_t n, double deadline, double budget, double* seconds,
    double* cost, std::uint64_t* mask_words) {
  zero_mask(mask_words, n);
  const __m128d vdl = _mm_set1_pd(deadline);
  const __m128d vb = _mm_set1_pd(budget);
  const __m128d v3600 = _mm_set1_pd(3600.0);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128d vs = _mm_setzero_pd();
    for (std::size_t a = 0; a < num_active; ++a) {
      const __m128d vq =
          _mm_div_pd(_mm_set1_pd(demand[active[a]]),
                     _mm_loadu_pd(u_rows + active[a] * stride + i));
      // max_pd(s, q) keeps s when s >= q — matches (s < q ? q : s).
      vs = _mm_max_pd(vs, vq);
    }
    const __m128d vc = _mm_mul_pd(_mm_div_pd(vs, v3600), _mm_loadu_pd(cu + i));
    _mm_storeu_pd(seconds + i, vs);
    _mm_storeu_pd(cost + i, vc);
    const __m128d ok = _mm_and_pd(_mm_cmplt_pd(vs, vdl), _mm_cmplt_pd(vc, vb));
    const auto bits = static_cast<unsigned>(_mm_movemask_pd(ok));
    mask_words[i / 64] |= static_cast<std::uint64_t>(bits) << (i % 64);
    count += static_cast<std::size_t>(std::popcount(bits));
  }
  for (; i < n; ++i) {
    double s = 0.0;
    for (std::size_t a = 0; a < num_active; ++a) {
      const double q = demand[active[a]] / u_rows[active[a] * stride + i];
      s = s < q ? q : s;
    }
    const double c = s / 3600.0 * cu[i];
    seconds[i] = s;
    cost[i] = c;
    if (s < deadline && c < budget) {
      mask_words[i / 64] |= std::uint64_t{1} << (i % 64);
      ++count;
    }
  }
  return count;
}

// ---------------------------------------------------------------------------
// AVX2 variants: 4 doubles per instruction, same exactly-rounded ops.
// ---------------------------------------------------------------------------

CELIA_SIMD_ATTR_AVX2 std::size_t classify_avx2(const double* u,
                                               const double* cu, std::size_t n,
                                               const ClassifyParams& p,
                                               double* seconds, double* cost,
                                               std::uint64_t* mask_words) {
  zero_mask(mask_words, n);
  const __m256d vd = _mm256_set1_pd(p.demand);
  const __m256d vdl = _mm256_set1_pd(p.deadline);
  const __m256d vb = _mm256_set1_pd(p.budget);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d v3600 = _mm256_set1_pd(3600.0);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vu = _mm256_loadu_pd(u + i);
    const __m256d vs = _mm256_div_pd(vd, vu);
    const __m256d vc =
        _mm256_mul_pd(_mm256_div_pd(vs, v3600), _mm256_loadu_pd(cu + i));
    _mm256_storeu_pd(seconds + i, vs);
    _mm256_storeu_pd(cost + i, vc);
    const __m256d ok = _mm256_and_pd(
        _mm256_cmp_pd(vu, vzero, _CMP_GT_OQ),
        _mm256_and_pd(_mm256_cmp_pd(vs, vdl, _CMP_LT_OQ),
                      _mm256_cmp_pd(vc, vb, _CMP_LT_OQ)));
    const auto bits = static_cast<unsigned>(_mm256_movemask_pd(ok));
    mask_words[i / 64] |= static_cast<std::uint64_t>(bits) << (i % 64);
    count += static_cast<std::size_t>(std::popcount(bits));
  }
  for (; i < n; ++i) {
    const double s = p.demand / u[i];
    const double c = s / 3600.0 * cu[i];
    seconds[i] = s;
    cost[i] = c;
    if (u[i] > 0 && s < p.deadline && c < p.budget) {
      mask_words[i / 64] |= std::uint64_t{1} << (i % 64);
      ++count;
    }
  }
  return count;
}

CELIA_SIMD_ATTR_AVX2 std::size_t classify_risk_avx2(
    const double* u, const double* v, const double* cu, std::size_t n,
    const ClassifyParams& p, double* seconds, double* cost,
    std::uint64_t* mask_words) {
  zero_mask(mask_words, n);
  const __m256d vd = _mm256_set1_pd(p.demand);
  const __m256d vdl = _mm256_set1_pd(p.deadline);
  const __m256d vb = _mm256_set1_pd(p.budget);
  const __m256d vz = _mm256_set1_pd(p.z);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d v3600 = _mm256_set1_pd(3600.0);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vv = _mm256_loadu_pd(v + i);
    const __m256d vue = _mm256_sub_pd(_mm256_loadu_pd(u + i),
                                      _mm256_mul_pd(vz, _mm256_sqrt_pd(vv)));
    const __m256d vs = _mm256_div_pd(vd, vue);
    const __m256d vc =
        _mm256_mul_pd(_mm256_div_pd(vs, v3600), _mm256_loadu_pd(cu + i));
    _mm256_storeu_pd(seconds + i, vs);
    _mm256_storeu_pd(cost + i, vc);
    const __m256d ok = _mm256_and_pd(
        _mm256_cmp_pd(vue, vzero, _CMP_GT_OQ),
        _mm256_and_pd(_mm256_cmp_pd(vs, vdl, _CMP_LT_OQ),
                      _mm256_cmp_pd(vc, vb, _CMP_LT_OQ)));
    const auto bits = static_cast<unsigned>(_mm256_movemask_pd(ok));
    mask_words[i / 64] |= static_cast<std::uint64_t>(bits) << (i % 64);
    count += static_cast<std::size_t>(std::popcount(bits));
  }
  for (; i < n; ++i) {
    const double ue = u[i] - p.z * std::sqrt(v[i]);
    const double s = p.demand / ue;
    const double c = s / 3600.0 * cu[i];
    seconds[i] = s;
    cost[i] = c;
    if (ue > 0 && s < p.deadline && c < p.budget) {
      mask_words[i / 64] |= std::uint64_t{1} << (i % 64);
      ++count;
    }
  }
  return count;
}

CELIA_SIMD_ATTR_AVX2 std::size_t classify_multi_avx2(
    const double* u_rows, std::size_t stride, const std::uint32_t* active,
    std::size_t num_active, const double* demand, const double* cu,
    std::size_t n, double deadline, double budget, double* seconds,
    double* cost, std::uint64_t* mask_words) {
  zero_mask(mask_words, n);
  const __m256d vdl = _mm256_set1_pd(deadline);
  const __m256d vb = _mm256_set1_pd(budget);
  const __m256d v3600 = _mm256_set1_pd(3600.0);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d vs = _mm256_setzero_pd();
    for (std::size_t a = 0; a < num_active; ++a) {
      const __m256d vq =
          _mm256_div_pd(_mm256_set1_pd(demand[active[a]]),
                        _mm256_loadu_pd(u_rows + active[a] * stride + i));
      vs = _mm256_max_pd(vs, vq);
    }
    const __m256d vc =
        _mm256_mul_pd(_mm256_div_pd(vs, v3600), _mm256_loadu_pd(cu + i));
    _mm256_storeu_pd(seconds + i, vs);
    _mm256_storeu_pd(cost + i, vc);
    const __m256d ok = _mm256_and_pd(_mm256_cmp_pd(vs, vdl, _CMP_LT_OQ),
                                     _mm256_cmp_pd(vc, vb, _CMP_LT_OQ));
    const auto bits = static_cast<unsigned>(_mm256_movemask_pd(ok));
    mask_words[i / 64] |= static_cast<std::uint64_t>(bits) << (i % 64);
    count += static_cast<std::size_t>(std::popcount(bits));
  }
  for (; i < n; ++i) {
    double s = 0.0;
    for (std::size_t a = 0; a < num_active; ++a) {
      const double q = demand[active[a]] / u_rows[active[a] * stride + i];
      s = s < q ? q : s;
    }
    const double c = s / 3600.0 * cu[i];
    seconds[i] = s;
    cost[i] = c;
    if (s < deadline && c < budget) {
      mask_words[i / 64] |= std::uint64_t{1} << (i % 64);
      ++count;
    }
  }
  return count;
}

CELIA_SIMD_ATTR_AVX2 std::size_t screen_avx2(const double* u,
                                             const double* cu, std::size_t n,
                                             const ScreenParams& p,
                                             std::uint64_t* unsure_words) {
  zero_mask(unsure_words, n);
  const __m256d vdl = _mm256_set1_pd(p.deadline);
  const __m256d vb = _mm256_set1_pd(p.budget);
  const __m256d vdp = _mm256_set1_pd(p.d_pass);
  const __m256d vdf = _mm256_set1_pd(p.d_fail);
  const __m256d vcp = _mm256_set1_pd(p.c_pass);
  const __m256d vcf = _mm256_set1_pd(p.c_fail);
  const __m256d vlo = _mm256_set1_pd(p.u_lo);
  const __m256d vhi = _mm256_set1_pd(p.u_hi);
  std::size_t passed = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vu = _mm256_loadu_pd(u + i);
    const __m256d vcu = _mm256_loadu_pd(cu + i);
    const __m256d tu = _mm256_mul_pd(vdl, vu);
    const __m256d bu = _mm256_mul_pd(vb, vu);
    const __m256d in = _mm256_and_pd(_mm256_cmp_pd(vlo, vu, _CMP_LE_OQ),
                                     _mm256_cmp_pd(vu, vhi, _CMP_LE_OQ));
    const __m256d pass = _mm256_and_pd(
        in, _mm256_and_pd(
                _mm256_cmp_pd(vdp, tu, _CMP_LT_OQ),
                _mm256_cmp_pd(_mm256_mul_pd(vcp, vcu), bu, _CMP_LT_OQ)));
    const __m256d fail = _mm256_and_pd(
        in, _mm256_or_pd(
                _mm256_cmp_pd(vdf, tu, _CMP_GE_OQ),
                _mm256_cmp_pd(_mm256_mul_pd(vcf, vcu), bu, _CMP_GE_OQ)));
    const auto pass_bits = static_cast<unsigned>(_mm256_movemask_pd(pass));
    const auto sure_bits =
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_or_pd(pass, fail)));
    unsure_words[i / 64] |= static_cast<std::uint64_t>(~sure_bits & 0xfu)
                            << (i % 64);
    passed += static_cast<std::size_t>(std::popcount(pass_bits));
  }
  if (i < n) {
    std::uint64_t tail = 0;
    passed += screen_scalar(u + i, cu + i, n - i, p, &tail);
    unsure_words[i / 64] |= tail << (i % 64);
  }
  return passed;
}

#endif  // CELIA_SIMD_X86

constexpr Kernels kScalarKernels{classify_scalar, classify_risk_scalar,
                                 classify_multi_scalar, screen_scalar};
#if CELIA_SIMD_X86
// The screen has no SSE2 variant: that level runs the scalar loop, which
// already avoids the two divisions per point of the exact predicate.
constexpr Kernels kSse2Kernels{classify_sse2, classify_risk_sse2,
                               classify_multi_sse2, screen_scalar};
constexpr Kernels kAvx2Kernels{classify_avx2, classify_risk_avx2,
                               classify_multi_avx2, screen_avx2};
#endif

Level clamp_to_detected(Level level) {
  const Level best = detected_level();
  return static_cast<int>(level) > static_cast<int>(best) ? best : level;
}

Level initial_level() {
  Level level = detected_level();
  if (const char* env = std::getenv("CELIA_SIMD")) {
    Level requested;
    if (level_from_name(env, requested)) level = clamp_to_detected(requested);
  }
  return level;
}

std::atomic<int>& active_level_storage() {
  static std::atomic<int> level{static_cast<int>(initial_level())};
  return level;
}

}  // namespace

Level detected_level() {
#if CELIA_SIMD_X86
  static const Level detected = [] {
    if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
    if (__builtin_cpu_supports("sse2")) return Level::kSse2;
    return Level::kScalar;
  }();
  return detected;
#else
  return Level::kScalar;
#endif
}

Level active_level() {
  return static_cast<Level>(
      active_level_storage().load(std::memory_order_relaxed));
}

Level set_level(Level level) {
  const Level installed = clamp_to_detected(level);
  active_level_storage().store(static_cast<int>(installed),
                               std::memory_order_relaxed);
  return installed;
}

std::string_view level_name(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSse2:
      return "sse2";
    case Level::kAvx2:
      return "avx2";
  }
  return "?";
}

bool level_from_name(std::string_view name, Level& out) {
  if (name == "scalar") {
    out = Level::kScalar;
    return true;
  }
  if (name == "sse2") {
    out = Level::kSse2;
    return true;
  }
  if (name == "avx2") {
    out = Level::kAvx2;
    return true;
  }
  return false;
}

const Kernels& kernels(Level level) {
#if CELIA_SIMD_X86
  switch (clamp_to_detected(level)) {
    case Level::kAvx2:
      return kAvx2Kernels;
    case Level::kSse2:
      return kSse2Kernels;
    case Level::kScalar:
      return kScalarKernels;
  }
#else
  (void)level;
#endif
  return kScalarKernels;
}

}  // namespace celia::core::simd
