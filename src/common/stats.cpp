#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace sage {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void OnlineStats::reset() { *this = OnlineStats{}; }

double OnlineStats::variance() const {
  if (n_ == 0) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

namespace {

// A bounded set of spares per thread: big enough to cover the sink +
// harness sample sets alive at once, small enough that the retained memory
// stays bounded (a few multi-MB buffers). The capacity floor keeps truly
// tiny buffers (the heap recycles those without touching the OS) out of the
// pool while still retaining the ~1k-sample sets a harness task churns per
// grid point — at high task counts their repeated grow-from-zero was a
// measurable mmap/minor-fault tax, so a sweep's worker reuses one warm
// buffer across tasks instead.
constexpr std::size_t kMinPooledSampleCapacity = 512;
constexpr std::size_t kMaxPooledSampleBuffers = 16;
thread_local std::vector<std::vector<double>> g_spare_sample_buffers;

}  // namespace

namespace detail {

std::vector<double> acquire_sample_buffer() {
  if (g_spare_sample_buffers.empty()) return {};
  std::vector<double> buf = std::move(g_spare_sample_buffers.back());
  g_spare_sample_buffers.pop_back();
  buf.clear();
  return buf;
}

void release_sample_buffer(std::vector<double>&& buf) {
  if (buf.capacity() >= kMinPooledSampleCapacity &&
      g_spare_sample_buffers.size() < kMaxPooledSampleBuffers) {
    g_spare_sample_buffers.push_back(std::move(buf));
  }
}

}  // namespace detail

SampleSet::~SampleSet() {
  detail::release_sample_buffer(std::move(xs_));
  detail::release_sample_buffer(std::move(sorted_));
}

double SampleSet::mean() const {
  if (xs_.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double SampleSet::stddev() const {
  if (xs_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (double x : xs_) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs_.size()));
}

void SampleSet::ensure_sorted() const {
  if (sorted_valid_) return;
  sorted_ = xs_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double SampleSet::quantile(double q) const {
  ensure_sorted();
  if (sorted_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= sorted_.size()) return sorted_.back();
  const double frac = pos - static_cast<double>(i);
  return sorted_[i] * (1.0 - frac) + sorted_[i + 1] * frac;
}

double SampleSet::ci95_half_width() const {
  if (xs_.size() < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(xs_.size()));
}

}  // namespace sage
