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
  /// Pareto with scale xm > 0 and shape alpha > 0 (heavy-tailed incidents).
  double pareto(double xm, double alpha);
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
/// per draw. The per-(n, s) constants are computed once at construction, so
/// a source pays the normalization's pow() and division per batch rather
/// than per record.
class ZipfSampler {
 public:
  ZipfSampler(std::int64_t n, double s);

  std::int64_t operator()(Rng& rng) const {
    if (n_ <= 1) return 0;  // before the draw: a one-key space consumes none
    const double u = rng.uniform();
    if (log_) return static_cast<std::int64_t>(std::exp(u * h_)) - 1;
    // Operand order is fixed: (u * h) * oms rounds differently from
    // u * (h * oms), and a one-ulp move in x can move a key.
    const double x = std::pow((u * h_) * oms_ + 1.0, inv_);
    auto k = static_cast<std::int64_t>(x) - 1;
    if (k < 0) k = 0;
    if (k >= n_) k = n_ - 1;
    return k;
  }

 private:
  std::int64_t n_;
  bool log_;          // s == 1: the CDF inverts through exp/log
  double h_ = 0.0;    // normalization: log(n), or (n^oms - 1) / oms
  double oms_ = 0.0;  // 1 - s
  double inv_ = 0.0;  // 1 / oms
};

}  // namespace sage
