// Tests for the sample-integration estimators (LastSample / LSI / WSI).
#include "monitor/estimator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>

#include "common/rng.hpp"

namespace sage::monitor {
namespace {

SimTime at_minutes(double m) { return SimTime::epoch() + SimDuration::minutes(m); }

TEST(LastSampleTest, TracksOnlyTheNewest) {
  LastSampleEstimator e;
  EXPECT_FALSE(e.ready());
  e.add_sample(at_minutes(0), 10.0);
  e.add_sample(at_minutes(1), 99.0);
  EXPECT_DOUBLE_EQ(e.mean(), 99.0);
  EXPECT_DOUBLE_EQ(e.stddev(), 0.0);
  EXPECT_EQ(e.sample_count(), 2u);
}

TEST(LinearTest, EqualWeightWindow) {
  LinearEstimator e(EstimatorConfig{.history = 4});
  for (double v : {1.0, 2.0, 3.0, 4.0}) e.add_sample(at_minutes(0), v);
  EXPECT_DOUBLE_EQ(e.mean(), 2.5);
  // Window slides: the 1.0 falls out.
  e.add_sample(at_minutes(1), 5.0);
  EXPECT_DOUBLE_EQ(e.mean(), 3.5);
}

TEST(LinearTest, StddevOverWindow) {
  LinearEstimator e(EstimatorConfig{.history = 8});
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) e.add_sample(at_minutes(0), v);
  EXPECT_DOUBLE_EQ(e.mean(), 5.0);
  EXPECT_DOUBLE_EQ(e.stddev(), 2.0);
}

TEST(WeightedTest, FirstSampleIsAdoptedFully) {
  WeightedEstimator e(EstimatorConfig{});
  e.add_sample(at_minutes(0), 7.5);
  EXPECT_DOUBLE_EQ(e.mean(), 7.5);
  EXPECT_DOUBLE_EQ(e.last_weight(), 1.0);
}

TEST(WeightedTest, ConvergesToConstantSignal) {
  WeightedEstimator e(EstimatorConfig{.history = 10});
  for (int i = 0; i < 500; ++i) e.add_sample(at_minutes(i), 5.0);
  EXPECT_NEAR(e.mean(), 5.0, 1e-6);
  EXPECT_NEAR(e.stddev(), 0.0, 1e-3);
}

TEST(WeightedTest, OutlierInStableSignalIsDistrusted) {
  const EstimatorConfig config{.history = 10,
                               .reference_interval = SimDuration::minutes(100)};
  WeightedEstimator wsi(config);
  LinearEstimator lsi(config);
  // A stable 10 MB/s link...
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const double v = 10.0 + rng.normal(0.0, 0.1);
    wsi.add_sample(at_minutes(i), v);
    lsi.add_sample(at_minutes(i), v);
  }
  // ...hit by a one-off glitch sample.
  wsi.add_sample(at_minutes(51), 1.0);
  lsi.add_sample(at_minutes(51), 1.0);
  // The weighted estimator must move less than the linear one.
  EXPECT_GT(wsi.mean(), 9.0);
  EXPECT_LT(std::abs(wsi.mean() - 10.0), std::abs(lsi.mean() - 10.0));
}

TEST(WeightedTest, UnstableSignalAcceptsFarSamplesMoreThanStable) {
  // "A high standard deviation favours accepting new samples": the same
  // absolute deviation from the mean must be trusted much more when the
  // environment has been unstable than when it has been quiet.
  // Large reference interval so the freshness term contributes little and
  // the Gaussian term is what differentiates the two environments.
  const EstimatorConfig config{.history = 10,
                               .reference_interval = SimDuration::minutes(100)};
  WeightedEstimator unstable(config);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    unstable.add_sample(at_minutes(i), rng.uniform(2.0, 18.0));
  }
  WeightedEstimator stable(config);
  for (int i = 0; i < 100; ++i) stable.add_sample(at_minutes(i), 10.0);

  // Both sit near mean 10; feed both an 18.
  unstable.add_sample(at_minutes(101), 18.0);
  stable.add_sample(at_minutes(101), 18.0);
  EXPECT_GT(unstable.last_weight(), 1.8 * stable.last_weight());
  EXPECT_GT(unstable.last_weight(), 0.04);
}

TEST(WeightedTest, TracksLevelShift) {
  WeightedEstimator e(EstimatorConfig{.history = 10});
  for (int i = 0; i < 100; ++i) e.add_sample(at_minutes(i), 10.0);
  // The link genuinely degrades to 4 MB/s; within a few dozen samples the
  // estimate must follow.
  for (int i = 100; i < 250; ++i) e.add_sample(at_minutes(i), 4.0);
  EXPECT_NEAR(e.mean(), 4.0, 1.0);
}

TEST(WeightedTest, RareSamplesWeighHigher) {
  const EstimatorConfig config{.history = 10,
                               .reference_interval = SimDuration::minutes(10)};
  WeightedEstimator frequent(config);
  WeightedEstimator rare(config);
  for (int i = 0; i < 20; ++i) {
    frequent.add_sample(at_minutes(i * 0.01), 10.0);  // every 0.6 s
    rare.add_sample(at_minutes(i * 20.0), 10.0);      // every 20 min
  }
  frequent.add_sample(at_minutes(0.2), 14.0);
  rare.add_sample(at_minutes(420.0), 14.0);
  EXPECT_GT(rare.last_weight(), frequent.last_weight());
  EXPECT_GT(std::abs(rare.mean() - 10.0), std::abs(frequent.mean() - 10.0));
}

TEST(WeightedTest, WeightStaysNormalized) {
  WeightedEstimator e(EstimatorConfig{.history = 5});
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    e.add_sample(at_minutes(i * 0.5), rng.uniform(0.0, 30.0));
    EXPECT_GE(e.last_weight(), 0.0);
    EXPECT_LE(e.last_weight(), 1.0);
    EXPECT_GE(e.stddev(), 0.0);
  }
}

TEST(LastSampleTest, CountsEverySampleEverSeen) {
  LastSampleEstimator e;
  EXPECT_EQ(e.sample_count(), 0u);
  EXPECT_FALSE(e.ready());
  for (int i = 1; i <= 100; ++i) {
    e.add_sample(at_minutes(i), static_cast<double>(i));
    EXPECT_EQ(e.sample_count(), static_cast<std::size_t>(i));
  }
  // Only the newest value is retained, but the count reflects the stream.
  EXPECT_DOUBLE_EQ(e.mean(), 100.0);
  EXPECT_DOUBLE_EQ(e.stddev(), 0.0);
  EXPECT_TRUE(e.ready());
}

TEST(LinearTest, WindowEvictsExactlyAtHistoryBoundary) {
  LinearEstimator e(EstimatorConfig{.history = 4});
  for (double v : {10.0, 20.0, 30.0, 40.0}) e.add_sample(at_minutes(0), v);
  // Exactly at capacity: nothing evicted yet.
  EXPECT_DOUBLE_EQ(e.mean(), 25.0);
  EXPECT_EQ(e.sample_count(), 4u);
  // One past capacity: the 10.0 (and only it) falls out.
  e.add_sample(at_minutes(1), 50.0);
  EXPECT_DOUBLE_EQ(e.mean(), 35.0);  // (20+30+40+50)/4
  // sample_count tracks the whole stream, not the resident window.
  EXPECT_EQ(e.sample_count(), 5u);
  // Fully turn the window over; only the last 4 samples matter.
  for (double v : {1.0, 1.0, 1.0, 1.0}) e.add_sample(at_minutes(2), v);
  EXPECT_DOUBLE_EQ(e.mean(), 1.0);
  EXPECT_DOUBLE_EQ(e.stddev(), 0.0);
}

TEST(LinearTest, CachedStatsMatchUncachedBitForBit) {
  // The stats memo is an evaluation-order cache: every read must equal, to
  // the last bit, the two-pass mean / population stddev of the resident
  // window computed from scratch — including partial windows and repeated
  // reads served from the memo.
  constexpr std::size_t kHistory = 8;
  LinearEstimator cached(EstimatorConfig{.history = kHistory});
  std::deque<double> window;
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform(0.5, 25.0);
    cached.add_sample(at_minutes(i), v);
    window.push_back(v);
    if (window.size() > kHistory) window.pop_front();

    double sum = 0.0;
    for (double x : window) sum += x;
    const double mean = sum / static_cast<double>(window.size());
    double residual = 0.0;
    for (double x : window) residual += (x - mean) * (x - mean);
    const double stddev =
        window.size() < 2 ? 0.0 : std::sqrt(residual / static_cast<double>(window.size()));

    // Read twice so the second read is served from the memo.
    EXPECT_EQ(cached.mean(), mean);
    EXPECT_EQ(cached.mean(), mean);
    EXPECT_EQ(cached.stddev(), stddev);
    EXPECT_EQ(cached.stddev(), stddev);
  }
}

TEST(WeightedTest, SigmaFloorInflatesVarianceDespiteDistrust) {
  // The variance update uses g = max(w, 0.3): even when every far sample is
  // distrusted (w ~ 0 on a historically stable link), sigma must still
  // inflate — dispersion is a fact to record, only the mean is protected.
  // Zero freshness (samples at the same instant) isolates the Gaussian term.
  const EstimatorConfig config{.history = 10,
                               .reference_interval = SimDuration::minutes(100)};
  WeightedEstimator e(config);
  for (int i = 0; i < 100; ++i) e.add_sample(at_minutes(i), 10.0);
  ASSERT_NEAR(e.stddev(), 0.0, 1e-6);
  e.add_sample(at_minutes(100), 2.0);
  // Gaussian term collapses on a stable link; near-zero freshness keeps the
  // trust weight far under the 0.3 floor, so the floor is what's acting.
  EXPECT_LT(e.last_weight(), 0.1);
  for (int i = 0; i < 30; ++i) {
    e.add_sample(at_minutes(100), i % 2 == 0 ? 18.0 : 2.0);
  }
  EXPECT_GT(e.stddev(), 2.0);
  // The mean itself stayed protected by the low trust weight.
  EXPECT_NEAR(e.mean(), 10.0, 2.0);
}

TEST(WeightedTest, FreshnessClampsAtReferenceInterval) {
  // freshness = clamp(gap / T, 0, 1): a gap of 10x the reference interval
  // must weigh exactly like a gap of 1x — news value saturates.
  const EstimatorConfig config{.history = 10,
                               .reference_interval = SimDuration::minutes(10)};
  WeightedEstimator at_t(config);
  WeightedEstimator beyond_t(config);
  for (int i = 0; i < 20; ++i) {
    at_t.add_sample(at_minutes(0), 10.0);
    beyond_t.add_sample(at_minutes(0), 10.0);
  }
  at_t.add_sample(at_minutes(10), 16.0);       // gap == T
  beyond_t.add_sample(at_minutes(100), 16.0);  // gap == 10T
  EXPECT_DOUBLE_EQ(at_t.last_weight(), beyond_t.last_weight());
  EXPECT_DOUBLE_EQ(at_t.mean(), beyond_t.mean());
  // And the lower clamp: a zero gap contributes no freshness at all, so the
  // weight is the Gaussian term alone over 2.
  WeightedEstimator zero_gap(config);
  for (int i = 0; i < 20; ++i) zero_gap.add_sample(at_minutes(0), 10.0);
  zero_gap.add_sample(at_minutes(0), 16.0);
  EXPECT_LT(zero_gap.last_weight(), at_t.last_weight());
}

TEST(FactoryTest, MakesEveryKind) {
  for (EstimatorKind kind :
       {EstimatorKind::kLastSample, EstimatorKind::kLinear, EstimatorKind::kWeighted}) {
    auto e = make_estimator(kind, EstimatorConfig{});
    ASSERT_NE(e, nullptr);
    e->add_sample(at_minutes(0), 3.0);
    EXPECT_DOUBLE_EQ(e->mean(), 3.0);
    EXPECT_TRUE(e->ready());
  }
}

TEST(FactoryTest, NamesAreStable) {
  EXPECT_EQ(estimator_name(EstimatorKind::kLastSample), "LastSample");
  EXPECT_EQ(estimator_name(EstimatorKind::kLinear), "LSI");
  EXPECT_EQ(estimator_name(EstimatorKind::kWeighted), "WSI");
}

// The headline property behind Fig 3: on a drifting + glitchy signal, WSI's
// tracking error is at most LSI's, and both beat LastSample.
TEST(EstimatorComparisonTest, WsiBeatsLastSampleOnGlitchySignal) {
  const EstimatorConfig config{.history = 12,
                               .reference_interval = SimDuration::minutes(10)};
  WeightedEstimator wsi(config);
  LinearEstimator lsi(config);
  LastSampleEstimator last;
  Rng rng(11);

  double err_wsi = 0.0;
  double err_lsi = 0.0;
  double err_last = 0.0;
  double truth = 10.0;
  int n = 0;
  for (int i = 0; i < 2000; ++i) {
    // Slow drift + occasional glitch readings that do not reflect truth.
    truth += rng.normal(0.0, 0.02);
    double observed = truth + rng.normal(0.0, 0.3);
    if (rng.chance(0.05)) observed = truth * rng.uniform(0.1, 0.4);  // glitch
    const SimTime t = at_minutes(i);
    wsi.add_sample(t, observed);
    lsi.add_sample(t, observed);
    last.add_sample(t, observed);
    if (i > 50) {
      err_wsi += std::abs(wsi.mean() - truth);
      err_lsi += std::abs(lsi.mean() - truth);
      err_last += std::abs(last.mean() - truth);
      ++n;
    }
  }
  err_wsi /= n;
  err_lsi /= n;
  err_last /= n;
  EXPECT_LT(err_wsi, err_last);
  EXPECT_LT(err_wsi, err_lsi * 1.05);  // at worst on par with LSI
}

}  // namespace
}  // namespace sage::monitor
