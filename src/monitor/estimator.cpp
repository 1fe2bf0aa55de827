#include "monitor/estimator.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace sage::monitor {

void LastSampleEstimator::add_sample(SimTime, double value) {
  last_ = value;
  ++n_;
}

void LinearEstimator::add_sample(SimTime, double value) {
  window_.push_back(value);
  if (window_.size() > config_.history) window_.pop_front();
  ++n_;
  stats_valid_ = false;
}

void LinearEstimator::recompute() const {
  if (window_.empty()) {
    cached_mean_ = 0.0;
    cached_stddev_ = 0.0;
  } else {
    double s = 0.0;
    for (double x : window_) s += x;
    cached_mean_ = s / static_cast<double>(window_.size());
    if (window_.size() < 2) {
      cached_stddev_ = 0.0;
    } else {
      const double m = cached_mean_;
      double r = 0.0;
      for (double x : window_) r += (x - m) * (x - m);
      cached_stddev_ = std::sqrt(r / static_cast<double>(window_.size()));
    }
  }
  stats_valid_ = true;
}

double LinearEstimator::mean() const {
  if (!stats_valid_) recompute();
  return cached_mean_;
}

double LinearEstimator::stddev() const {
  if (!stats_valid_) recompute();
  return cached_stddev_;
}

void WeightedEstimator::add_sample(SimTime t, double value) {
  SAGE_CHECK(config_.history >= 2);
  // Floor on the variability-update weight; see the header for why sigma
  // must not be gated by the trust weight alone.
  constexpr double kVarianceFloorWeight = 0.3;
  if (n_ == 0) {
    mu_ = value;
    var_ = 0.0;
    last_weight_ = 1.0;
  } else {
    // Gaussian distance term. When sigma is ~0 (perfectly stable so far),
    // fall back to a relative-distance scale so a genuinely different
    // sample is still distrusted rather than dividing by zero.
    const double sigma = std::max(stddev(), 1e-3 * std::max(std::abs(mu_), 1e-12));
    const double d = (mu_ - value) / sigma;
    const double gaussian = std::exp(-0.5 * d * d);

    // Freshness term: a sample after a long quiet period carries more news.
    const SimDuration gap = t - last_sample_time_;
    const double freshness =
        std::clamp(gap / config_.reference_interval, 0.0, 1.0);

    const double w = std::clamp((gaussian + freshness) / 2.0, 0.0, 1.0);
    const double g = std::max(w, kVarianceFloorWeight);
    const auto h = static_cast<double>(config_.history);
    const double residual = value - mu_;
    mu_ = ((h - w) * mu_ + w * value) / h;
    var_ = ((h - g) * var_ + g * residual * residual) / h;
    last_weight_ = w;
  }
  last_sample_time_ = t;
  ++n_;
}

double WeightedEstimator::stddev() const { return std::sqrt(std::max(0.0, var_)); }

std::unique_ptr<Estimator> make_estimator(EstimatorKind kind, EstimatorConfig config) {
  switch (kind) {
    case EstimatorKind::kLastSample:
      return std::make_unique<LastSampleEstimator>();
    case EstimatorKind::kLinear:
      return std::make_unique<LinearEstimator>(config);
    case EstimatorKind::kWeighted:
      return std::make_unique<WeightedEstimator>(config);
  }
  SAGE_CHECK_MSG(false, "unknown estimator kind");
  return nullptr;
}

}  // namespace sage::monitor
