#pragma once
// core::SweepPlan — structure-of-arrays representation of the
// configuration walk.
//
// The sweep's mixed-radix odometer walk (enumerate.hpp) historically
// produced one (index, U, Cu, V) tuple per callback. SweepPlan keeps the
// same walk — identical suffix-sum maintenance, identical chained in-row
// additions, so every value is bit-identical to the scalar original — but
// deposits the per-configuration channels into contiguous SoA lanes
// (per-dimension capacity rows, hourly-cost lane, optional variance and
// instance-count lanes) and hands them to the consumer one batch at a
// time. Batches are what make the classification kernels in
// core/simd.hpp possible: they run 2-4 predicates per instruction over a
// lane instead of one callback per configuration.
//
// Accumulation-order contract (pinned by the hexfloat goldens): a value at
// digits (d_0, d_1, ..., d_{M-1}) is
//
//     fold = ((0 + d_{M-1} w_{M-1}) + ... + d_1 w_1)   // right-to-left
//     value = fold + w_0 + w_0 + ... (d_0 times)       // chained adds
//
// exactly as the scalar per-configuration walk always computed it.
// fold_tail/fold_value expose that canonical order so the FrontierIndex
// delta paths can recompute a configuration's Cu at new prices
// bit-identically to what a from-scratch walk would produce.

#include <cstdint>
#include <span>
#include <vector>

#include "core/configuration.hpp"
#include "parallel/parallel_for.hpp"

namespace celia::core {

class SweepPlan {
 public:
  /// Lane length handed to consumers; sized so one batch's lanes stay in
  /// L1/L2 even with several demand dimensions.
  static constexpr std::size_t kBatch = 512;

  /// One batch of SoA lanes. Dimension d's capacities live at
  /// u_rows + d * kBatch (only the first `n` entries of each lane are
  /// valid for a consume(first, n, lanes) call).
  struct Lanes {
    const double* u_rows = nullptr;
    const double* cu = nullptr;
    const double* v = nullptr;                // nullptr: no variance lane
    const std::int32_t* instances = nullptr;  // nullptr: lane not tracked
    const double* u() const { return u_rows; }  // dimension 0
  };

  /// Scalar (1-D) plan. `var_terms` may be empty or all-zero, in which
  /// case the variance lane is dropped (its values are exactly +0.0
  /// either way). Throws std::invalid_argument on width mismatches.
  /// `space` must outlive the plan.
  SweepPlan(const ConfigurationSpace& space, std::span<const double> rates,
            std::span<const double> hourly,
            std::span<const double> var_terms = {},
            bool track_instances = false);

  /// Multi-dimensional plan: rate_rows[d][i] is the full-instance rate of
  /// type i in demand dimension d (row-major copies are taken, laid out
  /// contiguously [dimension][type]).
  SweepPlan(const ConfigurationSpace& space,
            std::span<const std::vector<double>> rate_rows,
            std::span<const double> hourly, bool track_instances = false);

  std::size_t num_types() const { return num_types_; }
  std::size_t num_dimensions() const { return dims_; }
  bool has_variance_lane() const { return has_var_; }
  bool has_instances_lane() const { return track_instances_; }
  const ConfigurationSpace& space() const { return *space_; }

  /// Rate of type i in dimension d (the contiguous row layout).
  double rate(std::size_t dim, std::size_t type) const {
    return rates_[dim * num_types_ + type];
  }

  /// Walk [range.begin, range.end) invoking
  /// consume(first_index, n, lanes) for successive batches of n <= kBatch
  /// consecutive configurations starting at first_index. Lane values are
  /// pure functions of the configuration — independent of the range
  /// partition and of the batch boundaries.
  template <typename Consumer>
  void walk(parallel::BlockedRange range, Consumer&& consume) const {
    if (dims_ == 1) {
      walk_impl<true>(range, consume);
    } else {
      walk_impl<false>(range, consume);
    }
  }

  /// The canonical right-to-left fold over digits 1..M-1 (the suffix-sum
  /// start value of a row): acc = (...(0 + d_{M-1} w_{M-1}) + ...) + d_1
  /// w_1. Bit-identical to the walk's su/scu/sv row bases.
  static double fold_tail(std::span<const int> digits,
                          std::span<const double> weights);

  /// Full canonical value: fold_tail plus d_0 chained additions of w_0 —
  /// exactly the double the walk passes to its consumer for this
  /// configuration.
  static double fold_value(std::span<const int> digits,
                           std::span<const double> weights);

 private:
  template <bool kOneDim, typename Consumer>
  void walk_impl(parallel::BlockedRange range, Consumer&& consume) const;

  const ConfigurationSpace* space_ = nullptr;
  std::size_t num_types_ = 0;
  std::size_t dims_ = 1;
  bool has_var_ = false;
  bool track_instances_ = false;
  std::vector<double> rates_;  // [dimension][type], contiguous rows
  std::vector<double> hourly_;
  std::vector<double> var_terms_;
};

template <bool kOneDim, typename Consumer>
void SweepPlan::walk_impl(parallel::BlockedRange range,
                          Consumer&& consume) const {
  if (range.empty()) return;
  const std::size_t m = num_types_;
  const std::size_t dims = kOneDim ? 1 : dims_;
  const auto& max_counts = space_->max_counts();
  std::vector<int> digits(m);
  space_->decode_into(range.begin, digits);

  const double hourly0 = hourly_[0];
  const double var0 = has_var_ ? var_terms_[0] : 0.0;
  const std::uint64_t row_radix =
      static_cast<std::uint64_t>(max_counts[0]) + 1;

  // Suffix sums: su[i * dims + d] = sum_{t >= i} digits[t] * rates[d][t],
  // maintained with the fixed right-to-left fold (see the header comment).
  std::vector<double> su((m + 1) * dims, 0.0);
  std::vector<double> scu(m + 1, 0.0);
  std::vector<double> sv(has_var_ ? m + 1 : 0, 0.0);
  std::vector<int> si(track_instances_ ? m + 1 : 0, 0);
  for (std::size_t i = m; i-- > 1;) {
    for (std::size_t d = 0; d < dims; ++d)
      su[i * dims + d] = su[(i + 1) * dims + d] + digits[i] * rate(d, i);
    scu[i] = scu[i + 1] + digits[i] * hourly_[i];
    if (has_var_) sv[i] = sv[i + 1] + digits[i] * var_terms_[i];
    if (track_instances_) si[i] = si[i + 1] + digits[i];
  }

  // Batch lanes (heap scratch: one allocation per walk call).
  std::vector<double> ubuf(dims * kBatch);
  std::vector<double> cubuf(kBatch);
  std::vector<double> vbuf(has_var_ ? kBatch : 0);
  std::vector<std::int32_t> ibuf(track_instances_ ? kBatch : 0);
  Lanes lanes;
  lanes.u_rows = ubuf.data();
  lanes.cu = cubuf.data();
  lanes.v = has_var_ ? vbuf.data() : nullptr;
  lanes.instances = track_instances_ ? ibuf.data() : nullptr;

  std::vector<double> cur(dims);
  std::uint64_t index = range.begin;
  std::uint64_t batch_first = range.begin;
  std::size_t fill = 0;
  const auto flush = [&] {
    if (fill > 0) {
      consume(batch_first, fill, static_cast<const Lanes&>(lanes));
      batch_first += fill;
      fill = 0;
    }
  };

  for (;;) {
    for (std::size_t d = 0; d < dims; ++d) cur[d] = su[dims + d];
    double cu = scu[1];
    double v = has_var_ ? sv[1] : 0.0;
    std::int32_t inst = track_instances_ ? si[1] : 0;
    const auto k_begin = static_cast<std::uint64_t>(digits[0]);
    for (std::uint64_t k = 0; k < k_begin; ++k) {
      for (std::size_t d = 0; d < dims; ++d) cur[d] += rate(d, 0);
      cu += hourly0;
      if (has_var_) v += var0;
      ++inst;
    }
    const std::uint64_t steps =
        std::min<std::uint64_t>(row_radix - k_begin, range.end - index);
    for (std::uint64_t j = 0; j < steps; ++j) {
      for (std::size_t d = 0; d < dims; ++d) {
        ubuf[d * kBatch + fill] = cur[d];
        cur[d] += rate(d, 0);
      }
      cubuf[fill] = cu;
      cu += hourly0;
      if (has_var_) {
        vbuf[fill] = v;
        v += var0;
      }
      if (track_instances_) ibuf[fill] = inst;
      ++inst;
      ++fill;
      if (fill == kBatch) flush();
    }
    index += steps;
    if (index >= range.end) break;
    digits[0] = 0;
    std::size_t i = 1;
    for (; i < m; ++i) {
      if (digits[i] < max_counts[i]) {
        ++digits[i];
        break;
      }
      digits[i] = 0;
    }
    for (std::size_t d = 0; d < dims; ++d)
      su[i * dims + d] = su[(i + 1) * dims + d] + digits[i] * rate(d, i);
    scu[i] = scu[i + 1] + digits[i] * hourly_[i];
    if (has_var_) sv[i] = sv[i + 1] + digits[i] * var_terms_[i];
    if (track_instances_) si[i] = si[i + 1] + digits[i];
    for (std::size_t t = i; t-- > 1;) {
      for (std::size_t d = 0; d < dims; ++d)
        su[t * dims + d] = su[(t + 1) * dims + d];
      scu[t] = scu[t + 1];
      if (has_var_) sv[t] = sv[t + 1];
      if (track_instances_) si[t] = si[t + 1];
    }
  }
  flush();
}

}  // namespace celia::core
