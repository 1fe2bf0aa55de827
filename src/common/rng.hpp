// Deterministic random number generation for the simulator.
//
// All stochastic behaviour in SAGE (link noise, incident arrivals, workload
// generation) flows through one of these generators, seeded explicitly, so
// every experiment in bench/ regenerates bit-identical tables.
//
// The generator is xoshiro256** seeded via SplitMix64 — fast, tiny state and
// well-studied statistical quality; <random> engines are avoided because
// their distributions are not reproducible across standard libraries.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace sage {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** PRNG with distribution helpers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5a6eULL);

  /// Derive an independent child stream (for per-link / per-source RNGs).
  [[nodiscard]] Rng fork();

  // The draw primitives below are inline: workload generation calls them
  // once (or more) per record on the data-plane hot path.

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double uniform() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    // Power-of-two spans (the usual key-space size) mask instead of paying
    // a hardware divide; the result is identical to `% span` for any draw.
    const std::uint64_t x = next_u64();
    const std::uint64_t r = (span & (span - 1)) == 0 ? (x & (span - 1)) : x % span;
    return lo + static_cast<std::int64_t>(r);
  }
  /// Standard normal via Marsaglia polar (cached spare).
  double normal() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u = 0.0;
    double v = 0.0;
    double s = 0.0;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * m;
    has_spare_ = true;
    return u * m;
  }
  double normal(double mean, double stddev) { return mean + stddev * normal(); }
  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate);
  /// Bernoulli trial.
  bool chance(double p);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
  double spare_ = 0.0;
  bool has_spare_ = false;
};

/// Zipf-like integers in [0, n) with exponent s (workload key skew), drawn
/// by inverting the continuous approximation of the Zipf CDF — one uniform
/// per draw. `invert` is the only definition of a key. Two tables built at
/// construction answer almost every draw without it (Chen & Asau's
/// cut-point inversion): the cut of each key in coarse units of u, and a
/// guide from the top bits of u to the key where a short forward scan over
/// the cuts starts. A draw within a guard band of a cut, or past the tabled
/// keys, runs `invert`, so every key is bit-identical to the formula's.
class ZipfSampler {
 public:
  ZipfSampler(std::int64_t n, double s);

  std::int64_t operator()(Rng& rng) const {
    if (n_ <= 1) return 0;  // before the draw: a one-key space consumes none
    return key(rng.next_u64() >> 11);
  }

  /// The key of a draw whose 53-bit uniform is `m`, i.e. u = m * 2^-53 as
  /// Rng::uniform() computes it.
  [[nodiscard]] std::int64_t key(std::uint64_t m) const {
    const auto q = static_cast<std::uint32_t>(m >> (53 - kCoarseBits));
    std::uint32_t k = guide_[q >> guide_shift_];
    while (cuts_[k + 1] <= q) ++k;
    if (k < tabled_ && q - cuts_[k] >= guard_ && cuts_[k + 1] - q >= guard_) return k;
    return invert(m);
  }

 private:
  /// Coarse units of u: 2^31 per unit, so every cut (at most 1.0) and the
  /// UINT32_MAX sentinel behind the last one fit a uint32.
  static constexpr int kCoarseBits = 31;

  /// The formula: x = (1 + u*h*(1-s))^(1/(1-s)), or e^(u*h) at s == 1.
  [[nodiscard]] std::int64_t invert(std::uint64_t m) const;

  std::int64_t n_;
  bool log_;          // s == 1: the CDF inverts through exp/log
  double h_ = 0.0;    // normalization: log(n + 1), or ((n + 1)^oms - 1) / oms
  double oms_ = 0.0;  // 1 - s
  double inv_ = 0.0;  // 1 / oms
  /// Keys [0, tabled_) are tabled; cuts_[j] is the first coarse unit of key
  /// j (floor of its computed cut), cuts_[tabled_ + 1] the sentinel.
  std::vector<std::uint32_t> cuts_;
  /// guide_[b]: the key whose cut interval holds coarse unit b << guide_shift_.
  std::vector<std::uint16_t> guide_;
  std::uint32_t tabled_ = 0;
  std::uint32_t guard_ = 0;  // coarse units a q must sit inside both cuts
  int guide_shift_ = 0;
};

}  // namespace sage
