#include "core/frontier_index.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>

#include "core/query.hpp"
#include "core/simd.hpp"
#include "core/sweep_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "util/stopwatch.hpp"

namespace celia::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Quantile fences from a sorted-on-demand sample; interior fences are
/// sample quantiles, capped by the 0 / +inf sentinels.
std::vector<double> make_fences(std::vector<double> sample, std::size_t grid) {
  std::sort(sample.begin(), sample.end());
  std::vector<double> fences(grid + 1, 0.0);
  fences[grid] = kInf;
  if (!sample.empty()) {
    for (std::size_t k = 1; k < grid; ++k)
      fences[k] = sample[(k * sample.size()) / grid];
  }
  return fences;
}

/// Safety margin for slope dominance. Integer multiples of one instance
/// mix have real-equal slopes that round to doubles a few ulps apart, and
/// the rounded per-query cost chain (two divisions + one multiplication
/// each side) adds a few ulps more — rounded costs can order either way
/// within ~8 ulps of slope. An entry is dropped only when its slope
/// exceeds the best by MORE than this margin: then its rounded cost is
/// provably larger for every demand, so sweep() can never prefer it.
constexpr double kSlopeMargin = 1e-14;

// --- Delta-maintenance envelopes (DESIGN.md §13) ---------------------------
//
// kWideKappa: a point joins the wide candidate set W when its slope is
// within this factor of the staircase envelope at its u-strip's UPPER
// fence. The reprice closure needs every from-scratch survivor at any
// in-band price to satisfy slope <= B * (1 + eps)^2 * (1 + kSlopeMargin)
// * envelope ~= 1.101 * envelope with B = kRepriceBand. 1.15 keeps a
// ~4.5% safety factor over the closure bound while holding |W| to ~1M
// points on the 10M-configuration EC2 space — near-best mixes cluster a
// few percent above the envelope there, so every extra percent of kappa
// admits hundreds of thousands of points (1.25 blows the candidate cap
// and would disable deltas on exactly the space they matter for).
constexpr double kWideKappa = 1.15;
/// Maximum allowed spread max_i(rho_i) / min_i(rho_i) of the per-type
/// price ratios rho_i = new_i / anchor_i for repriced() to engage.
constexpr double kRepriceBand = 1.10;
/// Relative slack absorbing fold/rounding differences whenever a bound
/// derived from anchor-price slopes certifies something about new-price
/// costs (reprice counting, with_limit screening). Orders of magnitude
/// larger than the few-ulp error it covers, orders smaller than the
/// kWideKappa / kRepriceBand headroom it spends.
constexpr double kRetestSlack = 1e-9;
/// The query screens certify a point with kRetestSlack, which covers
/// relative rounding only. They engage when the demand, the budget and
/// every U they judge lie in this range, so no quotient or product on the
/// way to a cost can underflow (DESIGN.md §13, "Ordered s-strips").
constexpr double kScreenMin = 0x1p-400;
constexpr double kScreenMax = 0x1p400;
/// Caps keeping the delta structures bounded: a store whose candidate set
/// (or with_limit screen) exceeds these is declared not delta-capable and
/// the caller falls back to a full rebuild.
constexpr std::size_t kMaxCandidates = std::size_t{1} << 22;
constexpr std::size_t kMaxScreened = std::size_t{1} << 22;
/// Pass-A survivors a block appends before it re-filters its staircase;
/// the interval grows with the staircase so filtering stays amortized
/// O(log F) per surviving point.
constexpr std::size_t kMinRefilter = 256;

/// Suffix minimum of the staircase slopes: sm[k] = min slope over
/// frontier[k..); sm[frontier.size()] = +inf. Because staircase_filter's
/// running best only ever tightens on KEPT entries, this equals the exact
/// suffix-min over the FULL point set the staircase was filtered from.
std::vector<double> slope_suffix_min(
    std::span<const FrontierIndex::Entry> frontier) {
  std::vector<double> sm(frontier.size() + 1, kInf);
  for (std::size_t k = frontier.size(); k-- > 0;)
    sm[k] = std::min(frontier[k].cu / frontier[k].u, sm[k + 1]);
  return sm;
}

/// First staircase entry with u >= x (frontier ascends in u).
std::size_t frontier_at_or_above(
    std::span<const FrontierIndex::Entry> frontier, double x) {
  return static_cast<std::size_t>(
      std::lower_bound(frontier.begin(), frontier.end(), x,
                       [](const FrontierIndex::Entry& e, double v) {
                         return e.u < v;
                       }) -
      frontier.begin());
}

/// First staircase entry with u > x.
std::size_t frontier_above(std::span<const FrontierIndex::Entry> frontier,
                           double x) {
  return static_cast<std::size_t>(
      std::upper_bound(frontier.begin(), frontier.end(), x,
                       [](double v, const FrontierIndex::Entry& e) {
                         return v < e.u;
                       }) -
      frontier.begin());
}

std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xff;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t double_bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

/// A point's order key inside its s-strip: its slope rounded to float.
/// Rounding is monotone, so keys ascend with slopes (equal keys aside),
/// and the slope lies strictly between the key's two float neighbours.
float slope_key(double slope) { return static_cast<float>(slope); }

/// sweep()'s per-point feasibility predicates, bit for bit.
bool feasible_point(double demand, double deadline, double budget, double u,
                    double cu) {
  const double seconds = demand / u;
  if (!(seconds < deadline)) return false;
  return seconds / 3600.0 * cu < budget;
}

/// First index in [lo, hi) where `pred` holds, for a predicate that is
/// false on a prefix and true on the rest; hi when it never holds.
template <typename Pred>
std::uint64_t first_true(std::uint64_t lo, std::uint64_t hi, Pred&& pred) {
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (pred(mid))
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

/// Order-preserving uint32 image of a float (negative values flip every
/// bit, non-negative ones the sign bit), and its inverse. Adding +0.0 maps
/// -0.0 onto +0.0 first, so keys that compare equal map equal.
std::uint32_t ordered_bits(float key) {
  const auto bits = std::bit_cast<std::uint32_t>(key + 0.0f);
  return (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
}
float from_ordered_bits(std::uint32_t bits) {
  return std::bit_cast<float>((bits & 0x80000000u) != 0 ? bits & 0x7fffffffu
                                                        : ~bits);
}

/// One batch's strip lanes, shared by build passes A and B: the slope lane
/// cu / u (each division exactly rounded, so every double equals the
/// per-point quotient) and both strip-id lanes.
struct StripLanes {
  std::array<double, SweepPlan::kBatch> slope;
  std::array<std::uint32_t, SweepPlan::kBatch> u_strip;
  std::array<std::uint32_t, SweepPlan::kBatch> s_strip;
};

/// Walk `range` of `plan`, classify each batch into strips once, and call
/// body(index, u, cu, slope, u_strip, s_strip) for every U > 0
/// configuration in index order.
template <typename Body>
void walk_strips(const SweepPlan& plan, parallel::BlockedRange range,
                 const detail::StripLocator& u_locate,
                 const detail::StripLocator& s_locate, Body&& body) {
  auto strips = std::make_unique<StripLanes>();
  plan.walk(range, [&](std::uint64_t first, std::size_t n,
                       const SweepPlan::Lanes& lanes) {
    const double* u = lanes.u();
    const double* cu = lanes.cu;
    for (std::size_t j = 0; j < n; ++j) strips->slope[j] = cu[j] / u[j];
    for (std::size_t j = 0; j < n; ++j)
      strips->u_strip[j] = static_cast<std::uint32_t>(u_locate(u[j]));
    for (std::size_t j = 0; j < n; ++j)
      strips->s_strip[j] =
          static_cast<std::uint32_t>(s_locate(strips->slope[j]));
    for (std::size_t j = 0; j < n; ++j) {
      if (u[j] <= 0) continue;
      body(first + j, u[j], cu[j], strips->slope[j], strips->u_strip[j],
           strips->s_strip[j]);
    }
  });
}

}  // namespace

namespace detail {

std::vector<FrontierIndex::Entry> staircase_filter(
    std::vector<FrontierIndex::Entry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const FrontierIndex::Entry& a, const FrontierIndex::Entry& b) {
              if (a.u != b.u) return a.u > b.u;
              if (a.cu != b.cu) return a.cu < b.cu;
              return a.config_index < b.config_index;
            });
  std::vector<FrontierIndex::Entry> kept;
  double best_slope = kInf;
  for (const auto& entry : entries) {
    const double slope = entry.cu / entry.u;
    if (slope <= best_slope * (1.0 + kSlopeMargin)) {
      // Skip exact (u, cu) duplicates; pareto_filter would drop them too.
      if (!kept.empty() && kept.back().u == entry.u &&
          kept.back().cu == entry.cu)
        continue;
      kept.push_back(entry);
      best_slope = std::min(best_slope, slope);
    }
  }
  std::reverse(kept.begin(), kept.end());
  kept.shrink_to_fit();  // memory_bytes() charges capacity
  return kept;
}

StripLocator::StripLocator(std::span<const double> fences)
    : interior_(fences.begin() + 1, fences.end() - 1) {
  if (interior_.empty()) return;  // one strip: every x maps to 0
  const auto magnitude = [](double fence) {
    return double_bits(fence) & kMagnitude;
  };
  first_ = interior_.front();
  first_bits_ = magnitude(first_);
  // 8 buckets per strip over the interior fences' bit range. The bucket
  // count depends only on the grid, so the directory's size (and the
  // index's byte accounting) does not depend on the fence values.
  const std::uint64_t width = magnitude(interior_.back()) - first_bits_;
  const std::uint64_t buckets = 8 * (interior_.size() + 1);
  while ((width >> shift_) >= buckets) ++shift_;
  last_bucket_ = buckets - 1;
  // dir_[k] = strip of bucket k's lower bound first_bits_ + k * 2^shift_:
  // a lower bound on the strip of every x in bucket k, and an upper bound
  // on the strip of every x in bucket k - 1.
  dir_.assign(buckets + 1, 0);
  std::size_t count = 0;
  for (std::uint64_t k = 0; k < dir_.size(); ++k) {
    const std::uint64_t bound = first_bits_ + (k << shift_);
    while (count < interior_.size() && magnitude(interior_[count]) <= bound)
      ++count;
    dir_[k] = static_cast<std::uint32_t>(count);
  }
}

void order_segments_by_key(std::span<const std::uint64_t> offsets,
                           std::span<float> keys,
                           std::span<std::uint32_t> values) {
  if (offsets.size() < 2) return;
  std::size_t widest = 0;
  for (std::size_t j = 0; j + 1 < offsets.size(); ++j)
    widest = std::max<std::size_t>(widest, offsets[j + 1] - offsets[j]);
  // Ping-pong buffers: key and value lanes, two of each.
  std::vector<std::uint32_t> scratch(4 * widest);
  for (std::size_t j = 0; j + 1 < offsets.size(); ++j) {
    const std::size_t first = offsets[j];
    const std::size_t n = offsets[j + 1] - first;
    if (n < 2) continue;
    std::uint32_t* key = scratch.data();
    std::uint32_t* value = key + n;
    std::uint32_t* key_out = value + n;
    std::uint32_t* value_out = key_out + n;
    std::uint32_t varies = 0;  // bits in which some key differs from the first
    for (std::size_t i = 0; i < n; ++i) {
      key[i] = ordered_bits(keys[first + i]);
      value[i] = values[first + i];
      varies |= key[i] ^ key[0];
    }
    if (varies == 0) continue;  // all keys equal: already in order
    for (unsigned shift = 0; shift < 32; shift += 8) {
      if (((varies >> shift) & 0xffu) == 0) continue;
      std::array<std::uint32_t, 257> start{};
      for (std::size_t i = 0; i < n; ++i)
        ++start[((key[i] >> shift) & 0xffu) + 1];
      for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t at = start[(key[i] >> shift) & 0xffu]++;
        key_out[at] = key[i];
        value_out[at] = value[i];
      }
      std::swap(key, key_out);
      std::swap(value, value_out);
    }
    for (std::size_t i = 0; i < n; ++i) {
      keys[first + i] = from_ordered_bits(key[i]);
      values[first + i] = value[i];
    }
  }
}

}  // namespace detail

using detail::staircase_filter;

// --- GridStore -------------------------------------------------------------
//
// Everything the index holds besides the staircase and the model identity:
// the counting grid, the structure-of-arrays point store and the wide
// candidate set. Immutable once built and shared (shared_ptr) between an
// anchor index and every repriced() derivative — a price tick must not
// copy the multi-hundred-MB point store to produce a fresh index.
//
// Point layout: pu_u/pu_cu/pu_idx are parallel lanes holding every U > 0
// configuration grouped by u-strip (u_offsets delimits strips); ps_pos
// holds, grouped by s-strip (s_offsets), each point's POSITION in the pu
// lanes — an index-based second grouping instead of a second copy. Within
// an s-strip the positions ascend by slope_key, ties in ascending
// configuration index. Counts, positions and configuration indexes fit
// 32 bits: the build refuses spaces of 2^32 or more configurations.
struct FrontierIndex::GridStore {
  std::size_t grid = 0;
  std::vector<double> u_fences;             // grid + 1, [0, ..., +inf]
  std::vector<double> s_fences;             // grid + 1, [0, ..., +inf]
  detail::StripLocator u_locate;            // strip of a U value
  detail::StripLocator s_locate;            // strip of a slope value
  std::vector<std::uint64_t> u_offsets;     // grid + 1
  std::vector<std::uint64_t> s_offsets;     // grid + 1
  std::vector<std::uint32_t> matrix;        // (grid+1)^2, suffix-U/prefix-s
  std::vector<double> pu_u;                 // SoA point lanes by u-strip
  std::vector<double> pu_cu;                //   (cu at the ANCHOR prices)
  std::vector<std::uint32_t> pu_idx;        //   configuration index
  std::vector<std::uint32_t> ps_pos;        // s-strip grouping: pu positions
  std::vector<Entry> candidates;            // wide staircase candidate set W
  std::vector<double> anchor_hourly;        // prices pu_cu was folded with
  bool delta_capable = false;

  std::size_t bytes() const;
  void set_matrix(std::span<const std::uint32_t> hist2d);
  void regroup_by_slope();
  void select_candidates(std::span<const Entry> frontier);

  /// One query as the partial-strip counts see it. `screen` is set when
  /// the slack-certified verdicts below are sound (no underflow on the
  /// way to the point's cost); otherwise every point is retested.
  struct Ask {
    double demand;
    double deadline;
    double budget;
    double hscale;  // demand / 3600
    bool screen;
  };
  std::uint64_t count_u_strip(std::size_t i, const Ask& ask,
                              std::uint64_t& retested) const;
  std::uint64_t count_s_strip(std::size_t j, std::size_t m, const Ask& ask,
                              std::uint64_t& retested) const;
};

std::size_t FrontierIndex::GridStore::bytes() const {
  return (u_fences.capacity() + s_fences.capacity() + pu_u.capacity() +
          pu_cu.capacity() + anchor_hourly.capacity()) *
             sizeof(double) +
         (u_offsets.capacity() + s_offsets.capacity()) * sizeof(std::uint64_t) +
         (matrix.capacity() + pu_idx.capacity() + ps_pos.capacity()) *
             sizeof(std::uint32_t) +
         candidates.capacity() * sizeof(Entry) + u_locate.bytes() +
         s_locate.bytes();
}

/// The (suffix-in-U, prefix-in-s) count matrix from the per-(u-strip,
/// s-strip) histogram, row-major grid x grid.
void FrontierIndex::GridStore::set_matrix(
    std::span<const std::uint32_t> hist2d) {
  const std::size_t width = grid + 1;
  matrix.assign(width * width, 0);
  for (std::size_t i = grid; i-- > 0;) {
    std::uint32_t run = 0;
    for (std::size_t j = 1; j <= grid; ++j) {
      run += hist2d[i * grid + (j - 1)];
      matrix[i * width + j] = matrix[(i + 1) * width + j] + run;
    }
  }
}

/// Recompute the s-grouping (s_offsets, ps_pos ordered by slope key) and
/// the count matrix from the pu lanes, classifying each point once
/// (serial; delta paths only — the build fills the grouping during its
/// scatter pass and orders it in parallel with the same helper).
void FrontierIndex::GridStore::regroup_by_slope() {
  const std::size_t count = pu_u.size();
  std::vector<std::uint32_t> strip(count);
  std::vector<float> key(count);
  std::vector<std::uint32_t> hist2d(grid * grid, 0);
  for (std::size_t i = 0; i < grid; ++i) {
    std::uint32_t* row = hist2d.data() + i * grid;
    for (std::uint64_t p = u_offsets[i]; p < u_offsets[i + 1]; ++p) {
      const double slope = pu_cu[p] / pu_u[p];
      strip[p] = static_cast<std::uint32_t>(s_locate(slope));
      key[p] = slope_key(slope);
      ++row[strip[p]];
    }
  }
  set_matrix(hist2d);
  s_offsets.assign(grid + 1, 0);
  for (std::size_t j = 0; j < grid; ++j) {
    std::uint64_t column = 0;
    for (std::size_t i = 0; i < grid; ++i) column += hist2d[i * grid + j];
    s_offsets[j + 1] = s_offsets[j] + column;
  }
  hist2d = {};
  ps_pos.resize(count);
  std::vector<float> ps_key(count);
  std::vector<std::uint64_t> cursor(s_offsets.begin(), s_offsets.end() - 1);
  for (std::size_t pos = 0; pos < count; ++pos) {
    const std::uint64_t at = cursor[strip[pos]]++;
    ps_pos[at] = static_cast<std::uint32_t>(pos);
    ps_key[at] = key[pos];
  }
  detail::order_segments_by_key(s_offsets, ps_key, ps_pos);
}

/// Fill the wide candidate set W: every point whose slope is within
/// kWideKappa of the staircase envelope evaluated at its u-strip's UPPER
/// fence (the envelope is non-decreasing in u, so the strip-level value
/// upper-bounds the per-point one and W only grows). Sets delta_capable.
void FrontierIndex::GridStore::select_candidates(
    std::span<const Entry> frontier) {
  candidates.clear();
  delta_capable = false;
  const std::vector<double> sm = slope_suffix_min(frontier);
  for (std::size_t i = 0; i < grid; ++i) {
    const double env = sm[frontier_at_or_above(frontier, u_fences[i + 1])];
    for (std::uint64_t p = u_offsets[i]; p < u_offsets[i + 1]; ++p) {
      // env = +inf (top strip / empty suffix) admits everything: x <= inf.
      if (pu_cu[p] <= kWideKappa * env * pu_u[p]) {
        if (candidates.size() >= kMaxCandidates) {
          candidates.clear();
          candidates.shrink_to_fit();
          return;
        }
        candidates.push_back({pu_u[p], pu_cu[p], pu_idx[p]});
      }
    }
  }
  // bytes() charges capacity: drop push_back's growth slack (up to ~2x).
  candidates.shrink_to_fit();
  delta_capable = true;
}

/// Feasible points of u-strip i, read from the contiguous pu lanes. The
/// SIMD screen certifies each point against the deadline (D vs T * U) and
/// the budget (D/3600 * Cu vs B * U) with kRetestSlack on both sides,
/// multiplies only; the points it cannot certify take the exact
/// predicates.
std::uint64_t FrontierIndex::GridStore::count_u_strip(
    std::size_t i, const Ask& ask, std::uint64_t& retested) const {
  const std::uint64_t begin = u_offsets[i], end = u_offsets[i + 1];
  const auto exact = [&](std::uint64_t p) {
    ++retested;
    return feasible_point(ask.demand, ask.deadline, ask.budget, pu_u[p],
                          pu_cu[p]);
  };
  std::uint64_t count = 0;
  if (!ask.screen) {
    for (std::uint64_t p = begin; p < end; ++p) count += exact(p);
    return count;
  }
  simd::ScreenParams params;
  params.deadline = ask.deadline;
  params.budget = ask.budget;
  params.d_pass = ask.demand * (1.0 + kRetestSlack);
  params.d_fail = ask.demand * (1.0 - kRetestSlack);
  params.c_pass = ask.hscale * (1.0 + kRetestSlack);
  params.c_fail = ask.hscale * (1.0 - kRetestSlack);
  params.u_lo = kScreenMin;
  params.u_hi = kScreenMax;
  const simd::ScreenFn screen = simd::active_kernels().screen;
  constexpr std::size_t kChunk = 512;
  std::array<std::uint64_t, kChunk / 64> unsure;
  for (std::uint64_t first = begin; first < end; first += kChunk) {
    const std::size_t n = std::min<std::uint64_t>(kChunk, end - first);
    count += screen(pu_u.data() + first, pu_cu.data() + first, n, params,
                    unsure.data());
    for (std::size_t w = 0; w < (n + 63) / 64; ++w)
      for (std::uint64_t bits = unsure[w]; bits != 0; bits &= bits - 1)
        count += exact(first + 64 * w +
                       static_cast<std::uint64_t>(std::countr_zero(bits)));
  }
  return count;
}

/// Feasible points of s-strip j with U >= u_fences[m] (u-strips >= m,
/// which pass the deadline wholly). The strip's positions ascend by slope
/// key k, and a point's slope lies strictly between k's float neighbours,
/// so D/3600 * next(k) * (1 + slack) < B certifies a pass and D/3600 *
/// prev(k) * (1 - slack) >= B a fail; both are monotone in k. A binary
/// search finds the surely-passing prefix and a galloping one the
/// surely-failing suffix (each reads O(log n) points). In the prefix a
/// lane position alone decides U >= u_fences[m]: the pu lanes are grouped
/// by u-strip, so that is position >= u_offsets[m]. Only the band between
/// the two takes the exact predicates.
std::uint64_t FrontierIndex::GridStore::count_s_strip(
    std::size_t j, std::size_t m, const Ask& ask,
    std::uint64_t& retested) const {
  const std::uint64_t begin = s_offsets[j], end = s_offsets[j + 1];
  // Positions are 32-bit (positive_ < 2^32); comparing them with a 32-bit
  // bound lets the prefix count compile to a plain vector loop.
  const auto u_first = static_cast<std::uint32_t>(u_offsets[m]);
  std::uint64_t pass_end = begin, fail_begin = end;
  std::uint64_t count = 0;
  if (ask.screen) {
    constexpr float kInfKey = std::numeric_limits<float>::infinity();
    const double c_pass = ask.hscale * (1.0 + kRetestSlack);
    const double c_fail = ask.hscale * (1.0 - kRetestSlack);
    const auto key_at = [&](std::uint64_t p) {
      const std::uint32_t pos = ps_pos[p];
      return slope_key(pu_cu[pos] / pu_u[pos]);
    };
    const auto fails = [&](std::uint64_t p) {
      return c_fail * std::nextafter(key_at(p), -kInfKey) >= ask.budget;
    };
    pass_end = first_true(begin, end, [&](std::uint64_t p) {
      return !(c_pass * std::nextafter(key_at(p), kInfKey) < ask.budget);
    });
    // The band is a few keys wide: gallop from its start.
    std::uint64_t lo = pass_end, hi = pass_end, step = 1;
    while (hi < end && !fails(hi)) {
      lo = hi + 1;
      hi = std::min(end, hi + step);
      step *= 2;
    }
    fail_begin = first_true(lo, hi, fails);
    std::uint32_t prefix = 0;
    for (std::uint64_t p = begin; p < pass_end; ++p)
      prefix += ps_pos[p] >= u_first;
    count = prefix;
  }
  for (std::uint64_t p = pass_end; p < fail_begin; ++p) {
    const std::uint32_t pos = ps_pos[p];
    if (pos < u_first) continue;
    ++retested;
    count += feasible_point(ask.demand, ask.deadline, ask.budget, pu_u[pos],
                            pu_cu[pos]);
  }
  return count;
}

// --- Build -----------------------------------------------------------------

FrontierIndex FrontierIndex::build(const ConfigurationSpace& space,
                                   const ResourceCapacity& capacity,
                                   std::span<const double> hourly_costs,
                                   const BuildOptions& options) {
  detail::validate_model_widths(space, capacity, hourly_costs,
                                "FrontierIndex");
  // The staircase is demand-invariant only for scalar demand: with
  // several dimensions the frontier depends on the demand mix's
  // direction, so no single index can answer every vector query.
  if (!capacity.is_scalar())
    throw std::invalid_argument(
        "FrontierIndex: cannot index the multi-dimensional capacity schema "
        "[" + capacity.dimensions().describe() + "] (" +
        std::to_string(capacity.num_dimensions()) +
        " dimensions) — the staircase is demand-invariant only in 1-D; "
        "vector queries take the sweep route");
  // Configuration indexes, lane positions and grid counts are stored in
  // 32 bits; refuse before walking anything.
  if (space.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error(
        "FrontierIndex: the space has more than 2^32 - 1 configurations "
        "(32-bit configuration indexes and lane positions overflow)");

  static obs::Counter& builds = obs::counter(
      "celia_frontier_builds_total", "FrontierIndex builds executed");
  static obs::Histogram& build_seconds = obs::histogram(
      "celia_frontier_build_seconds", {},
      "Wall time of one FrontierIndex build (all three passes)");
  builds.add(1);
  util::Stopwatch build_timer;
  obs::Span build_span("frontier_build", "planner");

  FrontierIndex index;
  index.max_counts_ = space.max_counts();
  for (std::size_t i = 0; i < capacity.num_types(); ++i)
    index.rates_.push_back(capacity.rate(i));
  index.hourly_.assign(hourly_costs.begin(), hourly_costs.end());
  index.total_ = space.size();

  const std::vector<double>& rates = index.rates_;
  const std::vector<double>& hourly = index.hourly_;
  parallel::ThreadPool& pool =
      options.pool ? *options.pool : parallel::default_pool();

  const std::uint64_t n = space.size();
  std::size_t grid = options.grid;
  if (grid == 0) {
    grid = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
    grid = std::clamp<std::size_t>(grid, 8, 2048);
  }
  index.grid_ = grid;

  auto store = std::make_shared<GridStore>();
  store->grid = grid;
  store->anchor_hourly = index.hourly_;

  // Fences and seed staircase from one deterministic stride sample. Fence
  // values only steer the partition (any value is correct); quantiles keep
  // the strips balanced. The sample is valued with the walk's canonical
  // fold, so its staircase holds real points bit for bit as pass A walks
  // them and can seed every block's pruning frontier.
  std::vector<Entry> seed;
  {
    obs::Span span("frontier_build.fences", "planner");
    const std::uint64_t target = std::min<std::uint64_t>(n, 65536);
    const std::uint64_t stride = std::max<std::uint64_t>(1, n / target);
    std::vector<double> u_sample, s_sample;
    std::vector<int> digits(space.num_types());
    for (std::uint64_t i = 0; i < n; i += stride) {
      space.decode_into(i, digits);
      const double u = SweepPlan::fold_value(digits, rates);
      const double cu = SweepPlan::fold_value(digits, hourly);
      if (u > 0) {
        u_sample.push_back(u);
        s_sample.push_back(cu / u);
        seed.push_back({u, cu, i});
      }
    }
    store->u_fences = make_fences(std::move(u_sample), grid);
    store->s_fences = make_fences(std::move(s_sample), grid);
    store->u_locate = detail::StripLocator(store->u_fences);
    store->s_locate = detail::StripLocator(store->s_fences);
    seed = staircase_filter(std::move(seed));
  }

  // Passes A and B walk one plan over the same blocks; walk_strips hands
  // both the same per-batch slope and strip lanes.
  const SweepPlan plan(space, rates, hourly);
  const auto blocks = parallel::split_range(0, n, pool.num_threads());
  const auto run_blocks = [&](const auto& task) {
    std::vector<std::future<void>> futures;
    futures.reserve(blocks.size());
    for (std::size_t b = 0; b < blocks.size(); ++b)
      futures.push_back(pool.submit([&task, b] { task(b); }));
    for (auto& f : futures) f.get();
  };

  // Pass A: per-block strip histograms + staircase candidates. A point
  // whose slope exceeds the block staircase's suffix-min slope above its U
  // by more than kSlopeMargin is dropped before it is buffered: every
  // staircase_filter over a superset meets those larger-U entries first,
  // so its running best slope is already that low and it would never keep
  // the point (DESIGN.md §13, "Exact prune-before-buffer").
  struct BlockStats {
    std::vector<std::uint64_t> hist_u, hist_s;
    // frontier[0, staircase) is the latest staircase_filter output
    // (ascending U) and slope_min its slope_suffix_min; the entries after
    // it survived the pruning check against that staircase.
    std::vector<Entry> frontier;
    std::size_t staircase = 0;
    std::vector<double> slope_min;
    // The last pruning test that dropped a point: every point with U below
    // witness_u and slope above witness_slope is dropped by the same
    // argument, so it is tried first (consecutive configurations usually
    // share it). The initial witness drops nothing.
    double witness_u = -kInf;
    double witness_slope = kInf;

    /// True when the point (u, slope) can never be a staircase entry.
    bool pruned(double u, double slope) {
      if (u < witness_u && slope > witness_slope) return true;
      const std::size_t above =
          frontier_above(std::span(frontier.data(), staircase), u);
      const double bound = slope_min[above] * (1.0 + kSlopeMargin);
      if (!(slope > bound)) return false;
      witness_u = frontier[above].u;
      witness_slope = bound;
      return true;
    }

    void refilter() {
      frontier = staircase_filter(std::move(frontier));
      staircase = frontier.size();
      slope_min = slope_suffix_min(frontier);
    }
  };
  std::vector<BlockStats> stats(blocks.size());
  {
    obs::Span span("frontier_build.pass_a", "planner");
    run_blocks([&](std::size_t b) {
      BlockStats local;  // block-local: no false sharing
      local.hist_u.assign(grid, 0);
      local.hist_s.assign(grid, 0);
      local.frontier = seed;
      local.refilter();
      walk_strips(plan, blocks[b], store->u_locate, store->s_locate,
                  [&](std::uint64_t idx, double u, double cu, double slope,
                      std::uint32_t u_strip, std::uint32_t s_strip) {
                    ++local.hist_u[u_strip];
                    ++local.hist_s[s_strip];
                    if (local.pruned(u, slope)) return;
                    local.frontier.push_back({u, cu, idx});
                    if (local.frontier.size() - local.staircase >=
                        std::max(kMinRefilter, local.staircase))
                      local.refilter();
                  });
      stats[b] = std::move(local);
    });
  }

  // Strip offsets plus per-(block, strip) scatter cursors: deterministic
  // destinations, so pass B needs no atomics.
  store->u_offsets.assign(grid + 1, 0);
  store->s_offsets.assign(grid + 1, 0);
  for (std::size_t i = 0; i < grid; ++i) {
    store->u_offsets[i + 1] = store->u_offsets[i];
    store->s_offsets[i + 1] = store->s_offsets[i];
    for (const auto& local : stats) {
      store->u_offsets[i + 1] += local.hist_u[i];
      store->s_offsets[i + 1] += local.hist_s[i];
    }
  }
  index.positive_ = store->u_offsets[grid];

  std::vector<std::vector<std::uint64_t>> cursor_u(blocks.size()),
      cursor_s(blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    cursor_u[b].resize(grid);
    cursor_s[b].resize(grid);
  }
  for (std::size_t i = 0; i < grid; ++i) {
    std::uint64_t run_u = store->u_offsets[i];
    std::uint64_t run_s = store->s_offsets[i];
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      cursor_u[b][i] = run_u;
      cursor_s[b][i] = run_s;
      run_u += stats[b].hist_u[i];
      run_s += stats[b].hist_s[i];
    }
  }

  // Pass B: scatter the SoA point lanes (u-strip grouping) and record each
  // point's lane position, with its slope key, in the s-strip grouping.
  // Blocks cover ascending index ranges, so each s-strip receives its
  // points in ascending configuration index. The keys are transient and
  // the scatter writes every one, so they skip the zero-fill.
  auto ps_key = std::make_unique_for_overwrite<float[]>(index.positive_);
  {
    obs::Span span("frontier_build.pass_b", "planner");
    store->pu_u.resize(index.positive_);
    store->pu_cu.resize(index.positive_);
    store->pu_idx.resize(index.positive_);
    store->ps_pos.resize(index.positive_);
    run_blocks([&](std::size_t b) {
      std::vector<std::uint64_t>& cu_cursor = cursor_u[b];
      std::vector<std::uint64_t>& cs_cursor = cursor_s[b];
      walk_strips(plan, blocks[b], store->u_locate, store->s_locate,
                  [&](std::uint64_t idx, double u, double cu, double slope,
                      std::uint32_t u_strip, std::uint32_t s_strip) {
                    const std::uint64_t pos = cu_cursor[u_strip]++;
                    store->pu_u[pos] = u;
                    store->pu_cu[pos] = cu;
                    store->pu_idx[pos] = static_cast<std::uint32_t>(idx);
                    const std::uint64_t at = cs_cursor[s_strip]++;
                    store->ps_pos[at] = static_cast<std::uint32_t>(pos);
                    ps_key[at] = slope_key(slope);
                  });
    });
  }

  // Order every s-strip by slope key (stable, so ties stay in ascending
  // configuration index whatever the pool size), then drop the keys.
  {
    obs::Span span("frontier_build.order", "planner");
    parallel::ForOptions fo;
    fo.pool = &pool;
    fo.schedule = parallel::Schedule::kDynamic;
    parallel::parallel_for_blocked(
        0, grid,
        [&](parallel::BlockedRange strips) {
          detail::order_segments_by_key(
              std::span(store->s_offsets)
                  .subspan(strips.begin, strips.size() + 1),
              std::span(ps_key.get(), index.positive_), store->ps_pos);
        },
        fo);
    ps_key.reset();
  }

  // Pass C: per-u-strip slope histogram (each row owned by one task), then
  // the (suffix-in-U, prefix-in-s) count matrix.
  {
    obs::Span span("frontier_build.pass_c", "planner");
    std::vector<std::uint32_t> hist2d(grid * grid, 0);
    parallel::ForOptions fo;
    fo.pool = &pool;
    parallel::parallel_for(
        0, grid,
        [&](std::uint64_t i) {
          std::uint32_t* row = hist2d.data() + i * grid;
          for (std::uint64_t p = store->u_offsets[i];
               p < store->u_offsets[i + 1]; ++p)
            ++row[store->s_locate(store->pu_cu[p] / store->pu_u[p])];
        },
        fo);
    store->set_matrix(hist2d);
  }

  // Merge per-block staircase candidates into the final frontier, then
  // derive the wide candidate set from it.
  {
    obs::Span span("frontier_build.merge", "planner");
    std::vector<Entry> candidates;
    for (auto& local : stats) {
      candidates.insert(candidates.end(), local.frontier.begin(),
                        local.frontier.end());
      local.frontier.clear();
    }
    index.frontier_ = staircase_filter(std::move(candidates));
    store->select_candidates(index.frontier_);
  }
  index.store_ = std::move(store);
  build_seconds.record(build_timer.elapsed_seconds());
  return index;
}

FrontierIndex FrontierIndex::build(const ConfigurationSpace& space,
                                   const ResourceCapacity& capacity,
                                   const cloud::Catalog& catalog,
                                   const BuildOptions& options) {
  if (!capacity.compatible_with(catalog))
    throw std::invalid_argument(
        "FrontierIndex: capacity was characterized against a structurally "
        "different catalog than '" + catalog.name() + "'");
  FrontierIndex index = build(space, capacity, catalog.hourly_costs(), options);
  index.catalog_fingerprint_ = catalog.fingerprint();
  return index;
}

FrontierIndex FrontierIndex::build(const ConfigurationSpace& space,
                                   const ResourceCapacity& capacity,
                                   const BuildOptions& options) {
  const std::vector<double> hourly = ec2_hourly_costs();
  return build(space, capacity, hourly, options);
}

// --- Delta maintenance -----------------------------------------------------

std::uint64_t FrontierIndex::content_fingerprint() const {
  std::uint64_t hash = 1469598103934665603ull;
  hash = fnv_mix(hash, max_counts_.size());
  for (const int count : max_counts_)
    hash = fnv_mix(hash, static_cast<std::uint64_t>(count));
  for (const double rate : rates_) hash = fnv_mix(hash, double_bits(rate));
  for (const double price : hourly_) hash = fnv_mix(hash, double_bits(price));
  hash = fnv_mix(hash, catalog_fingerprint_);
  hash = fnv_mix(hash, total_);
  hash = fnv_mix(hash, positive_);
  hash = fnv_mix(hash, frontier_.size());
  for (const Entry& entry : frontier_) {
    hash = fnv_mix(hash, double_bits(entry.u));
    hash = fnv_mix(hash, double_bits(entry.cu));
    hash = fnv_mix(hash, entry.config_index);
  }
  return hash;
}

bool FrontierIndex::delta_capable() const {
  return store_ != nullptr && store_->delta_capable;
}

bool FrontierIndex::is_repriced() const { return repriced_; }

std::optional<FrontierIndex> FrontierIndex::repriced(
    std::span<const double> new_hourly) const {
  if (!delta_capable()) return std::nullopt;
  const std::size_t width = hourly_.size();
  if (new_hourly.size() != width || width == 0) return std::nullopt;

  // Per-type price ratios are taken against the ANCHOR prices (the ones
  // pu_cu / candidates were folded with), not this index's own — chains of
  // reprices re-derive from the anchor instead of compounding bands.
  const std::vector<double>& anchor = store_->anchor_hourly;
  double lo = kInf, hi = 0.0;
  for (std::size_t i = 0; i < width; ++i) {
    const double from = anchor[i];
    const double to = new_hourly[i];
    if (!(from > 0) || !(to > 0) || !std::isfinite(to)) return std::nullopt;
    const double ratio = to / from;
    lo = std::min(lo, ratio);
    hi = std::max(hi, ratio);
  }
  // Export how much of the provable anchor band this edit consumed, so a
  // /metrics reader can see rebuild-fallbacks coming before they happen:
  // 1 = prices still at the anchor, 0 = at the band edge, negative = the
  // edit fell outside the band and this call refused.
  static obs::Gauge& headroom = obs::gauge(
      "celia_frontier_reprice_band_headroom",
      "Remaining fraction of the repriced() anchor band after the latest "
      "attempt (1 = at the anchor, 0 = band edge, negative = refused)");
  headroom.set((kRepriceBand - hi / lo) / (kRepriceBand - 1.0));
  if (!(hi / lo <= kRepriceBand)) return std::nullopt;

  // Re-derive every wide candidate's Cu with the canonical walk fold —
  // bit-identical to the double a from-scratch walk at the new prices
  // would hand the staircase — and re-filter. The kWideKappa closure (see
  // the header) guarantees every from-scratch survivor is a candidate, and
  // dropping never-kept points does not perturb staircase_filter's state,
  // so the result equals the from-scratch staircase bit for bit.
  const ConfigurationSpace space(max_counts_);
  std::vector<int> digits(width);
  std::vector<Entry> entries;
  entries.reserve(store_->candidates.size());
  for (const Entry& candidate : store_->candidates) {
    space.decode_into(candidate.config_index, digits);
    entries.push_back({candidate.u,
                       SweepPlan::fold_value(digits, new_hourly),
                       candidate.config_index});
  }

  FrontierIndex out;
  out.max_counts_ = max_counts_;
  out.rates_ = rates_;
  out.hourly_.assign(new_hourly.begin(), new_hourly.end());
  out.total_ = total_;
  out.positive_ = positive_;
  out.grid_ = grid_;
  out.frontier_ = staircase_filter(std::move(entries));
  out.store_ = store_;  // shared: the point store is anchor-priced
  out.repriced_ = true;
  out.rho_lo_ = lo;
  out.rho_hi_ = hi;
  return out;
}

std::optional<FrontierIndex> FrontierIndex::repriced(
    const cloud::Catalog& to) const {
  if (to.size() != hourly_.size()) return std::nullopt;
  if (to.limits() != max_counts_) return std::nullopt;
  std::optional<FrontierIndex> out = repriced(to.hourly_costs());
  if (out) out->catalog_fingerprint_ = to.fingerprint();
  return out;
}

std::optional<FrontierIndex> FrontierIndex::with_limit(std::size_t type,
                                                       int new_max) const {
  if (repriced_ || !delta_capable()) return std::nullopt;
  const std::size_t width = max_counts_.size();
  if (type >= width) return std::nullopt;
  const int old_max = max_counts_[type];
  if (new_max < 0 || new_max >= old_max) return std::nullopt;

  const GridStore& old_store = *store_;
  const std::size_t grid = old_store.grid;

  // Mixed-radix surgery: removing the digits d_type > new_max keeps every
  // survivor's digit vector — hence its walk-computed U and Cu doubles —
  // unchanged, and remaps indexes MONOTONICALLY (the walk order of the
  // shrunken space is the old order restricted to survivors).
  std::uint64_t scale_below = 1;
  for (std::size_t i = 0; i < type; ++i)
    scale_below *= static_cast<std::uint64_t>(max_counts_[i]) + 1;
  const std::uint64_t radix_old = static_cast<std::uint64_t>(old_max) + 1;
  const std::uint64_t radix_new = static_cast<std::uint64_t>(new_max) + 1;
  const std::uint64_t block = scale_below * radix_old;
  const auto remap = [&](std::uint64_t idx, std::uint64_t& out_idx) {
    const std::uint64_t value = idx + 1;
    const std::uint64_t high = value / block;
    const std::uint64_t rem = value % block;
    const std::uint64_t digit = rem / scale_below;
    if (digit > static_cast<std::uint64_t>(new_max)) return false;
    out_idx =
        rem % scale_below + digit * scale_below + high * (scale_below * radix_new) - 1;
    return true;
  };

  // Surviving wide candidates and their staircase E: the exactness screen
  // below compares every survivor against E's slope envelope.
  std::vector<Entry> surviving;
  surviving.reserve(old_store.candidates.size());
  for (const Entry& candidate : old_store.candidates) {
    std::uint64_t remapped = 0;
    if (remap(candidate.config_index, remapped))
      surviving.push_back({candidate.u, candidate.cu, remapped});
  }
  const std::vector<Entry> screen_stairs = staircase_filter(surviving);
  const std::vector<double> screen_sm = slope_suffix_min(screen_stairs);

  // One pass over the point store: drop non-survivors, keep strip order
  // (which preserves in-strip walk order under a monotone remap), and
  // screen for points the true new staircase could keep. A survivor can be
  // kept by a from-scratch filter only if its slope is within kSlopeMargin
  // of the envelope over survivors ABOVE it, which E's suffix-min bounds
  // from above — so filtering (surviving candidates + screened extras)
  // reproduces the from-scratch staircase exactly, no envelope-rise
  // heuristics needed. The screen admits everything above E's top entry
  // (suffix-min +inf), which covers the new global-max-U region.
  auto next = std::make_shared<GridStore>();
  next->grid = grid;
  next->u_fences = old_store.u_fences;
  next->s_fences = old_store.s_fences;
  next->u_locate = old_store.u_locate;
  next->s_locate = old_store.s_locate;
  next->anchor_hourly = old_store.anchor_hourly;
  next->u_offsets.assign(grid + 1, 0);
  // Every survivor is a configuration of the narrowed space, so its size
  // bounds the lanes: reserve once (memory_bytes() charges capacity).
  const std::uint64_t narrowed_size = (total_ + 1) / radix_old * radix_new - 1;
  next->pu_u.reserve(narrowed_size);
  next->pu_cu.reserve(narrowed_size);
  next->pu_idx.reserve(narrowed_size);
  std::vector<Entry> extras;
  for (std::size_t i = 0; i < grid; ++i) {
    next->u_offsets[i] = next->pu_u.size();
    for (std::uint64_t p = old_store.u_offsets[i];
         p < old_store.u_offsets[i + 1]; ++p) {
      std::uint64_t remapped = 0;
      if (!remap(old_store.pu_idx[p], remapped)) continue;
      const double u = old_store.pu_u[p];
      const double cu = old_store.pu_cu[p];
      next->pu_u.push_back(u);
      next->pu_cu.push_back(cu);
      next->pu_idx.push_back(static_cast<std::uint32_t>(remapped));
      const double env = screen_sm[frontier_above(screen_stairs, u)];
      if (cu / u <= env * (1.0 + kRetestSlack)) {
        if (extras.size() >= kMaxScreened) return std::nullopt;
        extras.push_back({u, cu, remapped});
      }
    }
  }
  next->u_offsets[grid] = next->pu_u.size();
  next->regroup_by_slope();

  surviving.insert(surviving.end(), extras.begin(), extras.end());

  FrontierIndex out;
  out.max_counts_ = max_counts_;
  out.max_counts_[type] = new_max;
  out.rates_ = rates_;
  out.hourly_ = hourly_;
  out.total_ = narrowed_size;
  out.positive_ = next->pu_u.size();
  out.grid_ = grid;
  out.frontier_ = staircase_filter(std::move(surviving));
  // The result is a fresh anchor: reselect W so further deltas chain.
  next->select_candidates(out.frontier_);
  out.store_ = std::move(next);
  return out;
}

std::optional<FrontierIndex> FrontierIndex::with_limit(
    std::size_t type, int new_max, const cloud::Catalog& to) const {
  const std::size_t width = max_counts_.size();
  if (to.size() != width || type >= width) return std::nullopt;
  const std::span<const double> to_hourly = to.hourly_costs();
  for (std::size_t i = 0; i < width; ++i)
    if (to_hourly[i] != hourly_[i]) return std::nullopt;
  const std::vector<int>& to_limits = to.limits();
  for (std::size_t i = 0; i < width; ++i) {
    const int expected = i == type ? new_max : max_counts_[i];
    if (to_limits[i] != expected) return std::nullopt;
  }
  std::optional<FrontierIndex> out = with_limit(type, new_max);
  if (out) out->catalog_fingerprint_ = to.fingerprint();
  return out;
}

// --- Queries ---------------------------------------------------------------

std::uint64_t FrontierIndex::count_feasible(double demand,
                                            double deadline_seconds,
                                            double budget_dollars) const {
  const std::size_t grid = grid_;
  if (grid == 0 || positive_ == 0) return 0;
  const GridStore& store = *store_;

  // First u-fence meeting the deadline: strips >= m pass it wholly (exact:
  // division is monotone, and U does not depend on prices), strip m-1 is
  // the single partial strip, strips below fail wholly. m >= 1 always
  // because u_fences[0] = 0.
  const std::size_t m =
      static_cast<std::size_t>(
          std::partition_point(store.u_fences.begin(), store.u_fences.end(),
                               [&](double fence) {
                                 return !(demand / fence < deadline_seconds);
                               }) -
          store.u_fences.begin());
  if (m > grid) return 0;  // not even unbounded capacity meets the deadline

  const double hscale = demand / 3600.0;
  const std::size_t width = grid + 1;
  std::uint64_t count = 0;
  static obs::Counter& retested = obs::counter(
      "celia_frontier_query_retested_total",
      "Points FrontierIndex queries retested with the exact per-point "
      "predicates (partial-strip points no bound could certify)");

  if (!repriced_) {
    const auto in_range = [](double x) {
      return x >= kScreenMin && x <= kScreenMax;
    };
    GridStore::Ask ask{demand, deadline_seconds, budget_dollars, hscale,
                       false};
    std::uint64_t retests = 0;
    // Partial u-strip m-1 (the screen checks each point's U itself).
    ask.screen = in_range(demand) && in_range(budget_dollars) &&
                 deadline_seconds >= kScreenMin;
    count += store.count_u_strip(m - 1, ask, retests);

    // The budget in slope form (cost ~ D/3600 * s): s-strips [0, j_pass)
    // pass wholly, strips >= j_fail fail wholly, and the strips between
    // are counted point by point, restricted to the whole-passing u-strips
    // (u >= u_fences[m] excludes strip m-1, counted above). With the
    // screen, kRetestSlack makes the wholesale verdicts sound for points
    // whose cost rounds across the budget (one strip, two when the budget
    // lies within the slack of a fence); without it, the slope form alone
    // splits at one partial strip. The staircase's last entry holds the
    // largest U.
    ask.screen = in_range(demand) && budget_dollars >= kScreenMin &&
                 frontier_.back().u <= kScreenMax;
    const double pass_scale = ask.screen ? 1.0 + kRetestSlack : 1.0;
    const double fail_scale = ask.screen ? 1.0 - kRetestSlack : 1.0;
    const auto fences = std::span(store.s_fences);
    const auto first_fence = [&](auto&& pred) {
      return static_cast<std::size_t>(
          std::partition_point(fences.begin(), fences.end(), pred) -
          fences.begin());
    };
    const std::size_t passing = first_fence([&](double fence) {
      return hscale * fence * pass_scale < budget_dollars;
    });
    const std::size_t j_pass = passing == 0 ? 0 : passing - 1;
    const std::size_t j_fail =
        std::min(grid, first_fence([&](double fence) {
                   return !(hscale * fence * fail_scale >= budget_dollars);
                 }));
    count += store.matrix[m * width + j_pass];
    for (std::size_t j = j_pass; j < j_fail; ++j)
      count += store.count_s_strip(j, m, ask, retests);
    retested.add(retests);
    return count;
  }

  // Repriced: the grid's slopes are ANCHOR-priced while the budget must be
  // judged at the current prices. Any point's current cost lies within
  // [rho_lo, rho_hi] (x fold-rounding slack) of its anchor cost, so strips
  // whose anchor-slope fences clear the budget by more than the band are
  // counted in bulk, and only the band-straddling middle strips are
  // re-tested per point with the EXACT fold-derived current cost.
  const ConfigurationSpace space(max_counts_);
  std::vector<int> digits(max_counts_.size());
  std::uint64_t retests = 0;
  const auto current_cost = [&](std::uint32_t pos, double seconds) {
    ++retests;
    space.decode_into(store.pu_idx[pos], digits);
    return seconds / 3600.0 * SweepPlan::fold_value(digits, hourly_);
  };

  const double pass_scale = rho_hi_ * (1.0 + kRetestSlack);
  const double fail_scale = rho_lo_ * (1.0 - kRetestSlack);
  // Certainly-passing strips [0, j_hi - 1): every point's current cost is
  // below budget for sure; j_fail = first certainly-failing strip.
  const std::size_t j_hi =
      static_cast<std::size_t>(
          std::partition_point(store.s_fences.begin(), store.s_fences.end(),
                               [&](double fence) {
                                 return hscale * fence * pass_scale <
                                        budget_dollars;
                               }) -
          store.s_fences.begin());
  const std::size_t j_fail =
      static_cast<std::size_t>(
          std::partition_point(store.s_fences.begin(), store.s_fences.end(),
                               [&](double fence) {
                                 return !(hscale * fence * fail_scale >=
                                          budget_dollars);
                               }) -
          store.s_fences.begin());

  const std::size_t j_bulk = j_hi == 0 ? 0 : j_hi - 1;
  count = store.matrix[m * width + j_bulk];

  // Partial u-strip m-1: full per-point retest at current prices.
  for (std::uint64_t p = store.u_offsets[m - 1]; p < store.u_offsets[m]; ++p) {
    const double seconds = demand / store.pu_u[p];
    if (!(seconds < deadline_seconds)) continue;
    // pu lanes and ps_pos address the same arrays: p IS a position here.
    if (current_cost(static_cast<std::uint32_t>(p), seconds) < budget_dollars)
      ++count;
  }

  // Band-straddling s-strips [j_bulk, j_fail): per-point retest, skipping
  // u-strip m-1 (covered above) and wholly-failing u-strips.
  const double u_min = store.u_fences[m];
  for (std::size_t j = j_bulk; j < std::min(j_fail, grid); ++j) {
    for (std::uint64_t p = store.s_offsets[j]; p < store.s_offsets[j + 1];
         ++p) {
      const std::uint32_t pos = store.ps_pos[p];
      const double u = store.pu_u[pos];
      if (!(u >= u_min)) continue;
      const double seconds = demand / u;
      if (!(seconds < deadline_seconds)) continue;
      if (current_cost(pos, seconds) < budget_dollars) ++count;
    }
  }
  retested.add(retests);
  return count;
}

SweepResult FrontierIndex::query(double demand, const Constraints& constraints,
                                 bool collect_pareto) const {
  validate_query(demand, constraints);
  return query_impl(demand, constraints, collect_pareto);
}

SweepResult FrontierIndex::query(const Query& query) const {
  // Query::make already validated; don't pay validate_query twice.
  return query_impl(query.demand(), query.constraints(),
                    query.options().collect_pareto);
}

SweepResult FrontierIndex::query_impl(double demand,
                                      const Constraints& constraints,
                                      bool collect_pareto) const {
  if (constraints.confidence_z > 0 && constraints.rate_sigma > 0)
    throw std::invalid_argument(
        "FrontierIndex::query: risk-aware queries need sweep()");

  static obs::Counter& queries = obs::counter(
      "celia_frontier_queries_total", "FrontierIndex queries answered");
  static obs::Histogram& query_seconds = obs::histogram(
      "celia_frontier_query_seconds", {},
      "FrontierIndex query latency (staircase scan + counting grid)");
  queries.add(1);
  util::Stopwatch query_timer;

  const double deadline = constraints.deadline_seconds;
  const double budget = constraints.budget_dollars;

  SweepResult result;
  result.total = total_;
  result.feasible = count_feasible(demand, deadline, budget);

  // The staircase's U ascends, so predicted seconds descend: the deadline
  // admits a suffix (exact). Slopes ascend with U, so cost ascends
  // (modulo ulps) and the budget admits a prefix of that suffix.
  const auto begin = frontier_.begin();
  const auto lo = std::partition_point(
      begin, frontier_.end(),
      [&](const Entry& e) { return !(demand / e.u < deadline); });
  const auto hi = std::partition_point(lo, frontier_.end(), [&](const Entry& e) {
    const double seconds = demand / e.u;
    return seconds / 3600.0 * e.cu < budget;
  });
  const auto lo_i = static_cast<std::size_t>(lo - begin);
  const auto hi_i = static_cast<std::size_t>(hi - begin);

  // One exact pass over the (short) admitted range: rounded costs inside an
  // equal-slope run wiggle by ulps in either direction, so no early exit —
  // min-cost and min-time use sweep()'s exact comparisons and tie breaks.
  bool any = false;
  for (std::size_t i = lo_i; i < hi_i; ++i) {
    const Entry& e = frontier_[i];
    const double seconds = demand / e.u;
    const double cost = seconds / 3600.0 * e.cu;
    if (!(cost < budget)) continue;
    const CostTimePoint point{e.config_index, seconds, cost};
    if (!any) {
      result.min_cost = result.min_time = point;
      any = true;
      continue;
    }
    if (cheaper(point, result.min_cost)) result.min_cost = point;
    if (faster(point, result.min_time)) result.min_time = point;
  }
  result.any_feasible = any;

  if (collect_pareto && any) {
    std::vector<CostTimePoint> candidates;
    candidates.reserve(hi_i - lo_i);
    for (std::size_t i = lo_i; i < hi_i; ++i) {
      const Entry& e = frontier_[i];
      const double seconds = demand / e.u;
      const double cost = seconds / 3600.0 * e.cu;
      if (!(cost < budget)) continue;
      candidates.push_back({e.config_index, seconds, cost});
    }
    result.pareto = pareto_filter(std::move(candidates));
  }
  result.route = QueryRoute::kIndex;
  query_seconds.record(query_timer.elapsed_seconds());
  return result;
}

std::size_t FrontierIndex::memory_bytes() const {
  std::size_t bytes = frontier_.capacity() * sizeof(Entry);
  // A repriced index SHARES its anchor's store; charging the shared bytes
  // to the anchor alone keeps cache accounting from double-counting.
  if (store_ && !repriced_) bytes += store_->bytes();
  return bytes;
}

bool FrontierIndex::matches(const ConfigurationSpace& space,
                            const ResourceCapacity& capacity,
                            std::span<const double> hourly_costs) const {
  if (space.max_counts() != max_counts_) return false;
  if (capacity.num_types() != rates_.size()) return false;
  for (std::size_t i = 0; i < rates_.size(); ++i)
    if (capacity.rate(i) != rates_[i]) return false;
  if (hourly_costs.size() != hourly_.size()) return false;
  for (std::size_t i = 0; i < hourly_.size(); ++i)
    if (hourly_costs[i] != hourly_[i]) return false;
  return true;
}

}  // namespace celia::core
