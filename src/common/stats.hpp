// Online statistics used by the monitoring layer and the experiment harness.
#pragma once

#include <cstddef>
#include <vector>

namespace sage {

/// Welford online mean/variance. O(1) memory, numerically stable.
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);
  void reset();

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance (divides by n, matching the paper-style sigma).
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Exact sample container with quantiles; used by the experiment harness
/// where sample counts are modest (thousands) and exact percentiles matter
/// for confidence intervals.
namespace detail {
/// Spare backing stores for SampleSet. Sinks accumulate multi-megabyte
/// sample vectors over a runtime's lifetime; recycling the buffers across
/// instances keeps the allocator from returning those pages to the OS on
/// every construct/destroy cycle (and re-faulting them on the next), which
/// otherwise dominates tight simulate-teardown loops.
std::vector<double> acquire_sample_buffer();
void release_sample_buffer(std::vector<double>&& buf);
}  // namespace detail

class SampleSet {
 public:
  SampleSet() = default;
  ~SampleSet();
  SampleSet(const SampleSet&) = default;
  SampleSet& operator=(const SampleSet&) = default;
  SampleSet(SampleSet&&) noexcept = default;
  SampleSet& operator=(SampleSet&&) noexcept = default;

  // Inline: sinks call this once per record on the data-plane hot path.
  void add(double x) {
    if (xs_.capacity() == 0) xs_ = detail::acquire_sample_buffer();
    xs_.push_back(x);
    sorted_valid_ = false;
  }
  /// Bulk append: grow by `n` slots and return a pointer to the first new
  /// one for the caller to fill directly — batch sinks use this to turn
  /// per-record push_backs into one tight vectorizable store loop.
  double* extend(std::size_t n) {
    if (xs_.capacity() == 0) xs_ = detail::acquire_sample_buffer();
    const std::size_t old = xs_.size();
    xs_.resize(old + n);
    sorted_valid_ = false;
    return xs_.data() + old;
  }
  [[nodiscard]] std::size_t count() const { return xs_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  /// Quantile in [0,1] by linear interpolation; requires at least 1 sample.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  /// Half-width of the normal-approximation 95% confidence interval.
  [[nodiscard]] double ci95_half_width() const;
  [[nodiscard]] const std::vector<double>& values() const { return xs_; }

 private:
  void ensure_sorted() const;

  std::vector<double> xs_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace sage
