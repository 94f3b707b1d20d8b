#pragma once
// Demand-invariant frontier index: pay the 10M-configuration enumeration
// once, answer every subsequent planner query in microseconds.
//
// A configuration's capacity U_j (Eq. 3) and unit cost C_j,u (Eq. 6) do
// not depend on the query — demand D, deadline T' and budget C' only enter
// through T = D/U (Eq. 2) and C = T * C_j,u / 3600 (Eq. 5/6). In the
// (U, s)-plane with slope s = C_u / U, both constraints become
// axis-aligned half-planes:
//
//     feasible  <=>  U > D/T'   and   s < 3600 C' / D.
//
// The index therefore precomputes, in one parallel pass over the space:
//
//  1. The STAIRCASE: the (max U, min s) non-dominated entries (equal
//     slopes all kept — integer multiples of one mix tie exactly in s but
//     their rounded costs differ by ulps either way). Sorted by ascending
//     U the surviving slopes are non-decreasing, so any query's feasible
//     frontier candidates form one contiguous range found by two binary
//     searches; one exact pass over that short range reproduces sweep()'s
//     min-cost/min-time points and (via pareto_filter) its exact Pareto
//     frontier.
//  2. The COUNTING GRID for the exact feasible count: ~sqrt(S) quantile
//     fences per axis, a (suffix-in-U, prefix-in-s) count matrix for the
//     strips that pass/fail wholly, and the (U, Cu) points bucketed by
//     strip, so the one partial strip per axis is counted exactly. The
//     partial u-strip is a contiguous lane scan: a multiply-only screen
//     certifies most points, and the rest take the exact per-point sweep
//     predicates. Each s-strip lists its points' lane positions ordered by
//     the float key (float)(cu / U); two binary searches over the keys
//     split the partial s-strip into a prefix that surely passes the
//     budget, a suffix that surely fails it and a short band between them.
//     The prefix is counted by comparing lane positions alone (the lanes
//     are grouped by u-strip, so a position bound is a U bound), and only
//     the band is re-tested per point. O(log S + sqrt(S)) per query vs
//     O(S), with O(log S) scattered reads (DESIGN.md §13, "Ordered
//     s-strips").
//
// Exactness: U and Cu are the same doubles the sweep computes (both come
// from the same core::SweepPlan walk), the deadline side of the grid
// classification is exact (division is monotone), a strip or point is
// certified against the budget only with a relative slack far wider than
// the rounding it covers, and every uncertified point in a partial strip
// or in the staircase range is re-tested with bit-identical predicates.
// The only divergence from sweep() is for points whose cost lies within a
// few ulps of a constraint boundary where a slope-form bound still
// decides: the staircase range end, and the budget-side strip split for
// demands, budgets or capacities outside the screens' [2^-400, 2^400]
// range — a measure-zero event for real-valued inputs, validated against
// sweep() by the property tests.
//
// Risk-aware queries (confidence_z > 0) change the effective capacity per
// configuration and keep the sweep path; see SweepOptions.
//
// There is no process-wide index cache: a caller either holds its index
// and passes IndexPolicy::Prefer(&index) to sweep(), or plans through
// core::PlannerEngine, whose byte-bounded LRU owns every index it builds.
//
// DELTA MAINTENANCE (see DESIGN.md §13): the build also records a compact
// structure-of-arrays point store (per-strip U/Cu/config-index lanes) and
// a WIDE staircase candidate set — every point whose anchor slope is
// within kWideKappa of the staircase envelope at its capacity. Two catalog
// edits can then be absorbed without re-walking the space:
//
//  * repriced(): price-only changes whose per-type ratios to the ANCHOR
//    prices stay inside a bounded band. The new staircase is recomputed
//    from the candidate set with each candidate's Cu re-derived by the
//    canonical walk fold (bit-identical to what a from-scratch build's
//    walk would produce), and a closure argument over the band guarantees
//    every from-scratch survivor is a candidate — so the delta staircase
//    equals the from-scratch staircase bit for bit. Feasible counts reuse
//    the anchor grid: s-strips that certainly pass/fail under the ratio
//    band are counted in bulk, the narrow middle band is re-tested
//    per-point with exact fold-derived costs.
//  * with_limit(): a single type's limit DECREASE. Configuration indexes
//    remap monotonically, so the point store is filtered in place and the
//    grid recounted without a walk; the staircase is re-filtered from the
//    surviving candidates and verified against an envelope-rise bound
//    (if dropping points uncovered configurations outside the candidate
//    set, the delta refuses and the caller falls back to a full rebuild).
//
// Both return std::nullopt whenever the edit falls outside their provable
// envelope; callers (PlannerEngine) treat nullopt as "full rebuild".

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cloud/catalog.hpp"
#include "core/capacity.hpp"
#include "core/configuration.hpp"
#include "core/enumerate.hpp"

namespace celia::core {

/// Namespace-scope so the in-class `= {}` defaults below can use its
/// member initializers (nested aggregates can't until the enclosing class
/// is complete).
struct FrontierBuildOptions {
  /// Pool for the build passes; nullptr = parallel::default_pool().
  parallel::ThreadPool* pool = nullptr;
  /// Strips per axis of the counting grid; 0 picks ~sqrt(space size)
  /// (clamped to [8, 2048]).
  std::size_t grid = 0;
};

class FrontierIndex {
 public:
  using BuildOptions = FrontierBuildOptions;

  /// One staircase entry: capacity, hourly cost, configuration.
  struct Entry {
    double u = 0.0;
    double cu = 0.0;
    std::uint64_t config_index = 0;
  };

  /// One parallel pass over the space (plus a scatter pass for the grid).
  /// `hourly_costs[i]` is the per-hour price of one instance of type i.
  /// Throws std::length_error, before walking anything, when the space
  /// holds more than 2^32 - 1 configurations (the index stores 32-bit
  /// configuration indexes, lane positions and counts).
  static FrontierIndex build(const ConfigurationSpace& space,
                             const ResourceCapacity& capacity,
                             std::span<const double> hourly_costs,
                             const BuildOptions& options = {});

  /// Build for a specific catalog: prices come from
  /// `catalog.hourly_costs()` and the index is PINNED to the catalog's
  /// full fingerprint, so sweep() refuses it, and PlannerEngine never
  /// serves it, for a different catalog (even one with identical prices).
  /// Throws std::invalid_argument when `capacity` was characterized
  /// against a structurally different catalog.
  static FrontierIndex build(const ConfigurationSpace& space,
                             const ResourceCapacity& capacity,
                             const cloud::Catalog& catalog,
                             const BuildOptions& options = {});

  /// Convenience overload pricing with the EC2 catalog (paper Table III).
  static FrontierIndex build(const ConfigurationSpace& space,
                             const ResourceCapacity& capacity,
                             const BuildOptions& options = {});

  /// Answer a deterministic (demand, deadline, budget) query. Equivalent
  /// to sweep() with the same arguments (see the exactness note above).
  /// Throws std::invalid_argument for non-positive demand and for
  /// risk-aware constraints (those need the sweep path).
  SweepResult query(double demand, const Constraints& constraints,
                    bool collect_pareto = true) const;

  /// As above for a pre-validated core::Query (validation already ran in
  /// Query::make, so it is not repeated). Risk-aware constraints still
  /// throw — route those through sweep().
  SweepResult query(const Query& query) const;

  /// The demand-invariant staircase: ascending U, non-decreasing slope.
  /// Equal-slope runs (integer multiples of one instance mix) are kept in
  /// full so rounded-cost ties resolve exactly as sweep()'s.
  std::span<const Entry> frontier() const { return frontier_; }

  std::uint64_t total_configurations() const { return total_; }
  /// Configurations with U > 0 (the only ones any query can return).
  std::uint64_t attainable_configurations() const { return positive_; }
  std::size_t grid_resolution() const { return grid_; }
  std::size_t memory_bytes() const;

  /// Full fingerprint of the catalog this index was built for; 0 when the
  /// index was built from an ad-hoc hourly-cost span (unpinned).
  std::uint64_t catalog_fingerprint() const { return catalog_fingerprint_; }

  /// Order-sensitive FNV-1a over the index's observable content: model
  /// identity (max_counts, rates, hourly prices), catalog pin, totals and
  /// every staircase entry's bits. Grid internals (fences, strip layout)
  /// are excluded — they only steer the exact counting partition, so a
  /// delta-maintained index and a from-scratch build are equal iff their
  /// content fingerprints (and hence frontiers, bit for bit) are equal.
  std::uint64_t content_fingerprint() const;

  // --- Delta maintenance ---------------------------------------------------

  /// True when the build retained the point store + wide candidate set
  /// that repriced()/with_limit() need (a degenerate space can exceed the
  /// candidate cap, in which case deltas refuse and callers rebuild).
  bool delta_capable() const;

  /// True for an index produced by repriced() (its point store still
  /// carries the anchor prices; with_limit() requires a pristine index).
  bool is_repriced() const;

  /// Price-only delta: same space, same rates, new hourly prices. Returns
  /// an index answering queries bit-identically to a from-scratch build at
  /// `new_hourly`, or nullopt when the edit is not provably coverable
  /// (width mismatch, ratio band vs the anchor prices exceeded, zero/
  /// negative prices, or delta_capable() is false). O(candidates), never
  /// walks the space.
  std::optional<FrontierIndex> repriced(
      std::span<const double> new_hourly) const;

  /// Catalog form: additionally requires an identical catalog STRUCTURE
  /// (types + limits) and pins the result to `to.fingerprint()`.
  std::optional<FrontierIndex> repriced(const cloud::Catalog& to) const;

  /// Single-axis delta: type `type`'s instance limit decreases to
  /// `new_max`. Filters + remaps the point store (one pass, no walk),
  /// recounts the grid and re-filters the staircase from the surviving
  /// candidates. Returns nullopt when the edit is an increase, the index
  /// is repriced or not delta-capable, the shrunken space is empty, or
  /// the envelope-rise verification cannot prove the filtered candidate
  /// set still covers the new staircase.
  std::optional<FrontierIndex> with_limit(std::size_t type, int new_max) const;

  /// Catalog form of with_limit: `to` must differ from the anchor catalog
  /// only in type `type`'s limit (same types, same prices); pins the
  /// result to `to.fingerprint()`.
  std::optional<FrontierIndex> with_limit(std::size_t type, int new_max,
                                          const cloud::Catalog& to) const;

  /// True when the index was built for exactly this model.
  bool matches(const ConfigurationSpace& space,
               const ResourceCapacity& capacity,
               std::span<const double> hourly_costs) const;

 private:
  // Counting grid + SoA point store + wide candidate set, built once and
  // shared immutably between an anchor index and every index delta-derived
  // from it (a reprice must not copy hundreds of MB). Defined in the .cpp.
  struct GridStore;

  FrontierIndex() = default;

  SweepResult query_impl(double demand, const Constraints& constraints,
                         bool collect_pareto) const;

  std::uint64_t count_feasible(double demand, double deadline_seconds,
                               double budget_dollars) const;

  // Model identity.
  std::vector<int> max_counts_;
  std::vector<double> rates_;
  std::vector<double> hourly_;
  std::uint64_t catalog_fingerprint_ = 0;  // 0 = ad-hoc span build
  std::uint64_t total_ = 0;
  std::uint64_t positive_ = 0;

  std::vector<Entry> frontier_;

  std::size_t grid_ = 0;
  std::shared_ptr<const GridStore> store_;

  // Reprice state: when repriced_, `hourly_` holds the current prices
  // while store_ still carries the anchor ones; [rho_lo_, rho_hi_] bounds
  // every per-type price ratio current/anchor (used by the banded count).
  bool repriced_ = false;
  double rho_lo_ = 1.0;
  double rho_hi_ = 1.0;
};

namespace detail {

/// The (max U, min slope) non-dominated staircase, returned ascending in U
/// with (near-)non-decreasing slope. Near-ties within the slope margin are
/// all kept so rounded-cost comparisons resolve exactly as sweep()'s; of
/// entries equal in (U, Cu) only the lowest config_index is kept. The
/// build's frontier equals this filter over every U > 0 configuration.
std::vector<FrontierIndex::Entry> staircase_filter(
    std::vector<FrontierIndex::Entry> entries);

/// Stable ascending sort of (keys, values) pairs within each segment
/// [offsets[j], offsets[j + 1]) of the two parallel arrays, for every j <
/// offsets.size() - 1; equal keys keep their input order. The index orders
/// each s-strip's lane positions by their slope key with it. An LSD radix
/// over an order-preserving uint32 image of the float keys, one 8-bit
/// digit per pass; a digit no key in the segment varies in is skipped, so
/// the narrow key range of one strip usually takes two passes. Segments
/// are independent: callers may order disjoint segment ranges in parallel.
void order_segments_by_key(std::span<const std::uint64_t> offsets,
                           std::span<float> keys,
                           std::span<std::uint32_t> values);

/// Exact O(1) strip lookup over one quantile fence vector (fences[0] = 0,
/// fences.back() = +inf, non-decreasing, non-negative; at least two
/// entries). For every x >= 0, including +inf, (*this)(x) equals
///
///     min(upper_bound(fences, x) - fences.begin() - 1, fences.size() - 2)
///
/// i.e. the number of interior fences fences[1 .. size-2] that are <= x.
/// A directory of 8 buckets per strip over the uint64 bit patterns of the
/// interior fences (non-negative doubles order like their bits) gives a
/// lower bound dir[k] and an upper bound dir[k + 1] for the answer; a short
/// scan, or a binary search when duplicate fences crowd one bucket,
/// finishes inside that range. Worst case O(log strips). DESIGN.md §13,
/// "Exact strip lookup".
class StripLocator {
 public:
  /// One strip: every x maps to 0.
  StripLocator() = default;
  explicit StripLocator(std::span<const double> fences);

  std::size_t operator()(double x) const {
    if (!(x >= first_)) return 0;  // below fences[1]; covers 0 and -0.0
    // Clearing the sign bit maps -0.0 to +0.0 (x >= first_ >= 0 here).
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x) & kMagnitude;
    const std::uint64_t k =
        std::min((bits - first_bits_) >> shift_, last_bucket_);
    std::size_t lo = dir_[k];
    const std::size_t hi = dir_[k + 1];
    if (hi - lo > kScan)
      return static_cast<std::size_t>(
          std::upper_bound(interior_.begin() + static_cast<std::ptrdiff_t>(lo),
                           interior_.begin() + static_cast<std::ptrdiff_t>(hi),
                           x) -
          interior_.begin());
    while (lo < hi && interior_[lo] <= x) ++lo;
    return lo;
  }

  /// Directory plus interior-fence bytes.
  std::size_t bytes() const {
    return dir_.capacity() * sizeof(std::uint32_t) +
           interior_.capacity() * sizeof(double);
  }

 private:
  static constexpr std::uint64_t kMagnitude = ~(std::uint64_t{1} << 63);
  /// Widest candidate range finished by a linear scan.
  static constexpr std::size_t kScan = 8;

  std::vector<double> interior_;             // fences[1 .. size-2]
  std::vector<std::uint32_t> dir_ = {0, 0};  // last_bucket_ + 2 entries
  double first_ = std::numeric_limits<double>::infinity();
  std::uint64_t first_bits_ = 0;
  std::uint64_t last_bucket_ = 0;
  unsigned shift_ = 0;
};

}  // namespace detail

}  // namespace celia::core
