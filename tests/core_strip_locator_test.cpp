// Tests for detail::StripLocator (core/frontier_index.hpp), the FrontierIndex
// build's O(1) strip lookup: on every fence vector and probe value it must
// return exactly what a std::upper_bound over the fences returns.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/frontier_index.hpp"
#include "util/rng.hpp"

namespace {

using celia::core::detail::StripLocator;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The reference: the strip holding x for fences[0] = 0 and
/// fences.back() = +inf, every x >= 0 landing in [0, fences.size() - 2].
std::size_t reference_strip(const std::vector<double>& fences, double x) {
  const auto it = std::upper_bound(fences.begin(), fences.end(), x);
  const auto raw = static_cast<std::size_t>(it - fences.begin());
  return std::min(raw - 1, fences.size() - 2);
}

/// Fence vector [0, interior..., +inf] with the interior sorted.
std::vector<double> fences_of(std::vector<double> interior) {
  std::sort(interior.begin(), interior.end());
  std::vector<double> fences{0.0};
  fences.insert(fences.end(), interior.begin(), interior.end());
  fences.push_back(kInf);
  return fences;
}

/// 0, -0.0, +inf, values below fences[1], every fence and its neighbours
/// on both sides.
std::vector<double> probes(const std::vector<double>& fences) {
  std::vector<double> xs{0.0, -0.0, kInf,
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::max()};
  if (fences.size() > 2) {
    xs.push_back(fences[1] / 2);
    xs.push_back(std::nextafter(fences[1], 0.0));
  }
  for (const double fence : fences) {
    xs.push_back(fence);
    xs.push_back(std::nextafter(fence, 0.0));
    xs.push_back(std::nextafter(fence, kInf));
  }
  return xs;
}

void expect_matches_reference(const std::vector<double>& fences) {
  const StripLocator locate(fences);
  for (const double x : probes(fences)) {
    SCOPED_TRACE(x);
    EXPECT_EQ(locate(x), reference_strip(fences, x));
  }
}

TEST(StripLocator, DistinctQuantileFences) {
  celia::util::Xoshiro256 rng(1);
  std::vector<double> interior;
  for (int k = 0; k < 2047; ++k) interior.push_back(rng.uniform(1e9, 5e10));
  const std::vector<double> fences = fences_of(interior);
  expect_matches_reference(fences);
  const StripLocator locate(fences);
  for (int trial = 0; trial < 100000; ++trial) {
    const double x = rng.uniform(0.0, 6e10);
    ASSERT_EQ(locate(x), reference_strip(fences, x)) << x;
  }
}

TEST(StripLocator, DuplicateRuns) {
  // Tied models repeat quantiles: short runs everywhere plus one run far
  // longer than the linear-scan window, which forces the binary search.
  std::vector<double> interior;
  for (int k = 1; k <= 60; ++k)
    for (int copies = 0; copies < 1 + k % 4; ++copies)
      interior.push_back(1e9 * k);
  for (int copies = 0; copies < 300; ++copies) interior.push_back(7.5e9);
  expect_matches_reference(fences_of(interior));
}

TEST(StripLocator, AllInteriorFencesEqual) {
  expect_matches_reference(fences_of(std::vector<double>(2047, 3e9)));
  expect_matches_reference(fences_of(std::vector<double>(7, 0.25)));
}

TEST(StripLocator, ZeroInteriorFences) {
  // Zero-cost configurations put slope fences at 0: x = 0 (and -0.0) then
  // lies on fences, not below them.
  expect_matches_reference(fences_of({0.0, 0.0, 0.0, 1.0, 2.0, 2.0, 5.0}));
  expect_matches_reference(fences_of(std::vector<double>(7, 0.0)));
}

TEST(StripLocator, MinimumAndDegenerateGrids) {
  // The automatic grid is at least 8 strips; explicit grids go down to 1.
  expect_matches_reference(fences_of({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}));
  expect_matches_reference(fences_of({1.5}));
  expect_matches_reference(fences_of({}));
}

TEST(StripLocator, SubnormalFences) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> interior;
  for (int k = 1; k <= 20; ++k) interior.push_back(tiny * k * k);
  interior.push_back(std::numeric_limits<double>::min());
  interior.push_back(1.0);
  expect_matches_reference(fences_of(interior));
}

TEST(StripLocator, ManyFencesInOneBucket) {
  // Fences spread over ~2000 binades put each cluster — a few ulps wide —
  // into a single directory bucket: 40 fences near 1.0 (finished by the
  // binary search) and 5 near 1e50 (finished by the linear scan).
  std::vector<double> interior{1e-300, 1e-100, 1e100, 1e300};
  for (const auto& [start, count] : {std::pair{1.0, 40}, std::pair{1e50, 5}}) {
    double x = start;
    for (int k = 0; k < count; ++k) {
      interior.push_back(x);
      x = std::nextafter(x, kInf);
    }
  }
  expect_matches_reference(fences_of(interior));
}

TEST(StripLocator, DefaultConstructedMapsEverythingToStripZero) {
  const StripLocator locate;
  for (const double x : {0.0, -0.0, 1.0, kInf}) EXPECT_EQ(locate(x), 0u);
}

}  // namespace
