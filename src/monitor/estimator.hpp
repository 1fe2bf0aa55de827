// Sample-integration strategies for modeling cloud performance metrics.
//
// The monitoring layer feeds a stream of (time, value) samples — throughput
// probes, CPU benchmarks, blob latencies — into an estimator that maintains
// the metric's expected value µ and variability σ. Three strategies are
// implemented, matching the evaluation's comparison (Fig 3 / Ablation A):
//
//  * LastSample ("Monitor"): the newest sample is the estimate. Cheap, and
//    what most deployed systems do; fully exposed to transient glitches.
//  * Linear (LSI): equal-weight mean/variance over a sliding history of h
//    samples.
//  * Weighted (WSI — the SAGE strategy): each sample is folded into µ and an
//    auxiliary second moment γ through an exponential window of depth h,
//    with a per-sample trust weight
//
//        w = ( exp(−(µ−S)²/(2σ²)) + freshness ) / 2        ∈ (0, 1)
//
//    combining (a) a Gaussian distance term — in a stable environment an
//    outlier is probably a glitch and is trusted less; when σ is large the
//    environment is genuinely unstable and far samples are accepted — and
//    (b) a freshness term min(1, gap/T) — rare samples carry more news than
//    rapid-fire ones. Updates:
//
//        µᵢ  = ((h−w)·µᵢ₋₁ + w·S) / h
//        σ²ᵢ = ((h−g)·σ²ᵢ₋₁ + g·(S−µᵢ₋₁)²) / h     g = max(w, 0.3)
//
//    Both recurrences are incremental rewrites in terms of the previous
//    estimate and the new sample, so no sample history is stored. The
//    variability update uses a floored weight g: if σ² were gated by the
//    trust weight alone, a genuinely unstable link would never inflate σ
//    (every far sample gets distrusted, keeping σ small, keeping samples
//    distrusted — a spiral), and the estimator could never distinguish
//    instability from glitches. Dispersion is a fact to record; the mean is
//    what trust protects.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <string_view>

#include "common/units.hpp"

namespace sage::monitor {

enum class EstimatorKind : std::uint8_t { kLastSample, kLinear, kWeighted };

[[nodiscard]] constexpr std::string_view estimator_name(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kLastSample:
      return "LastSample";
    case EstimatorKind::kLinear:
      return "LSI";
    case EstimatorKind::kWeighted:
      return "WSI";
  }
  return "?";
}

struct EstimatorConfig {
  /// Window depth h (number of samples that define the sliding window).
  std::size_t history = 12;
  /// Freshness reference interval T: a gap of T or more between samples
  /// yields full freshness weight.
  SimDuration reference_interval = SimDuration::minutes(10);
};

class Estimator {
 public:
  virtual ~Estimator() = default;

  virtual void add_sample(SimTime t, double value) = 0;
  [[nodiscard]] virtual double mean() const = 0;
  [[nodiscard]] virtual double stddev() const = 0;
  [[nodiscard]] virtual std::size_t sample_count() const = 0;
  [[nodiscard]] bool ready() const { return sample_count() > 0; }
};

class LastSampleEstimator final : public Estimator {
 public:
  void add_sample(SimTime t, double value) override;
  [[nodiscard]] double mean() const override { return last_; }
  [[nodiscard]] double stddev() const override { return 0.0; }
  [[nodiscard]] std::size_t sample_count() const override { return n_; }

 private:
  double last_ = 0.0;
  std::size_t n_ = 0;
};

class LinearEstimator final : public Estimator {
 public:
  explicit LinearEstimator(EstimatorConfig config) : config_(config) {}

  void add_sample(SimTime t, double value) override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double stddev() const override;
  [[nodiscard]] std::size_t sample_count() const override { return n_; }

 private:
  /// Cache miss: one walk of the window fills both stats — the mean sum,
  /// then the residual sum around that mean (the two-pass summation order
  /// estimator_test checks the memo against, bit for bit).
  void recompute() const;

  EstimatorConfig config_;
  std::deque<double> window_;
  std::size_t n_ = 0;
  // Stats memo: valid until the next add_sample. Mutable because the
  // accessors are (and must stay) const — the memo is an evaluation-order
  // cache, not observable state.
  mutable bool stats_valid_ = false;
  mutable double cached_mean_ = 0.0;
  mutable double cached_stddev_ = 0.0;
};

class WeightedEstimator final : public Estimator {
 public:
  explicit WeightedEstimator(EstimatorConfig config) : config_(config) {}

  void add_sample(SimTime t, double value) override;
  [[nodiscard]] double mean() const override { return mu_; }
  [[nodiscard]] double stddev() const override;
  [[nodiscard]] std::size_t sample_count() const override { return n_; }

  /// Trust weight assigned to the most recent sample (diagnostics).
  [[nodiscard]] double last_weight() const { return last_weight_; }

 private:
  EstimatorConfig config_;
  double mu_ = 0.0;
  double var_ = 0.0;  // exponentially weighted residual variance
  std::size_t n_ = 0;
  SimTime last_sample_time_;
  double last_weight_ = 1.0;
};

[[nodiscard]] std::unique_ptr<Estimator> make_estimator(EstimatorKind kind,
                                                        EstimatorConfig config);

}  // namespace sage::monitor
