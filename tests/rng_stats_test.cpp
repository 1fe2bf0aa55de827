// Tests for the deterministic RNG and the online-statistics toolkit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace sage {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngTest, ForkIsIndependentButDeterministic) {
  Rng parent1(7);
  Rng parent2(7);
  Rng child1 = parent1.fork();
  Rng child2 = parent2.fork();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
  // Child stream differs from the parent's continuation.
  EXPECT_NE(child1.next_u64(), parent1.next_u64());
}

TEST(RngTest, UniformInRange) {
  Rng rng(42);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1'000; ++i) {
    const double u = rng.uniform(5.0, 7.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(42);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo = saw_lo || v == 3;
    saw_hi = saw_hi || v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMoments) {
  Rng rng(42);
  OnlineStats stats;
  for (int i = 0; i < 50'000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(42);
  OnlineStats stats;
  for (int i = 0; i < 50'000; ++i) stats.add(rng.exponential(0.5));
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
}

TEST(RngTest, ChanceFrequency) {
  Rng rng(42);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 100'000.0, 0.3, 0.01);
}

TEST(RngTest, ZipfSkewsLow) {
  Rng rng(42);
  const ZipfSampler zipf(1000, 1.2);
  int low = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const auto k = zipf(rng);
    EXPECT_GE(k, 0);
    EXPECT_LT(k, 1000);
    if (k < 10) ++low;
  }
  // With skew 1.2, the first 10 of 1000 keys should dominate.
  EXPECT_GT(low, n / 4);
}

// The per-draw Zipf inversion, normalized over n + 1 so that x in
// [1, n + 1) reaches every key: the reference oracle. It recomputes the
// normalization on every call.
std::int64_t reference_key(double u, std::int64_t n, double s) {
  double x = 0.0;
  if (s == 1.0) {
    x = std::exp(u * std::log(n + 1.0));
  } else {
    const double one_minus_s = 1.0 - s;
    const double h = (std::pow(n + 1.0, one_minus_s) - 1.0) / one_minus_s;
    x = std::pow(u * h * one_minus_s + 1.0, 1.0 / one_minus_s);
  }
  auto k = static_cast<std::int64_t>(x) - 1;
  if (k < 0) k = 0;
  if (k >= n) k = n - 1;
  return k;
}

std::int64_t reference_zipf(Rng& rng, std::int64_t n, double s) {
  if (n <= 1) return 0;
  return reference_key(rng.uniform(), n, s);
}

TEST(ZipfSamplerTest, BitExactAgainstPerDrawInversion) {
  // The tables must not move a single key or draw: every key matches the
  // oracle's, and afterwards both generators sit at the same state (a
  // one-key space consumes no draw; s == 1 keeps its log branch). 2^20 keys
  // run past the tabled ones; s near 1 widens the guard.
  std::uint64_t seed = 100;
  for (const std::int64_t n : {0, 1, 2, 1000, 10000, 20000, 1 << 20}) {
    for (const double s : {0.5, 0.99, 0.999, 1.0, 1.001, 1.1, 1.2, 2.0}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " s=" << s);
      Rng oracle(++seed);
      Rng rng(seed);
      const ZipfSampler zipf(n, s);
      for (int i = 0; i < 1'000'000; ++i) {
        const std::int64_t want = reference_zipf(oracle, n, s);
        ASSERT_EQ(zipf(rng), want) << "draw " << i;
      }
      EXPECT_EQ(rng.next_u64(), oracle.next_u64()) << "draw counts differ";
    }
  }
}

TEST(ZipfSamplerTest, EveryKeyBoundaryMatchesOracle) {
  // Random draws almost never land next to a key boundary, where the table
  // and the formula could disagree. Find, for every key j, the first 53-bit
  // m at which the oracle reaches j, and probe m - 3 .. m + 2. The last cell
  // is ill-conditioned: its guard must cover the formula's own error.
  constexpr std::uint64_t kEnd = std::uint64_t{1} << 53;
  const auto oracle = [](std::uint64_t m, std::int64_t n, double s) {
    return reference_key(static_cast<double>(m) * 0x1.0p-53, n, s);
  };
  const std::pair<std::int64_t, double> cells[] = {
      {20000, 1.1}, {10000, 1.1}, {20000, 1.0}, {1000, 0.5}, {1000, 1.0 + 0x1p-40}};
  for (const auto& [n, s] : cells) {
    SCOPED_TRACE(testing::Message() << "n=" << n << " s=" << s);
    const ZipfSampler zipf(n, s);
    int boundaries = 0;
    for (std::int64_t j = 1; j < n; ++j) {
      std::uint64_t lo = 0;
      std::uint64_t hi = kEnd;
      while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (oracle(mid, n, s) >= j) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      if (lo == kEnd) continue;  // j is past the largest key any u yields
      ++boundaries;
      for (std::uint64_t m = lo < 3 ? 0 : lo - 3; m <= lo + 2 && m < kEnd; ++m) {
        ASSERT_EQ(zipf.key(m), oracle(m, n, s)) << "key " << j << " m " << m;
      }
    }
    EXPECT_EQ(boundaries, n - 1);  // key n - 1 is drawable too
  }
}

TEST(OnlineStatsTest, MeanVarianceMinMax) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook dataset
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStatsTest, MergeMatchesSequential) {
  OnlineStats all;
  OnlineStats a;
  OnlineStats b;
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 1.5);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(OnlineStatsTest, EmptyIsSafe) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SampleSetTest, QuantilesInterpolate) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.95), 95.05, 1e-9);
}

TEST(SampleSetTest, Ci95ShrinksWithSamples) {
  SampleSet small;
  SampleSet large;
  Rng rng(5);
  for (int i = 0; i < 10; ++i) small.add(rng.normal(0, 1));
  for (int i = 0; i < 1000; ++i) large.add(rng.normal(0, 1));
  EXPECT_GT(small.ci95_half_width(), large.ci95_half_width());
}

}  // namespace
}  // namespace sage
