#include "common/rng.hpp"

#include <cmath>

namespace sage {
Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
}

Rng Rng::fork() { return Rng(next_u64()); }

double Rng::exponential(double rate) { return -std::log1p(-uniform()) / rate; }

double Rng::pareto(double xm, double alpha) {
  return xm / std::pow(1.0 - uniform(), 1.0 / alpha);
}

bool Rng::chance(double p) { return uniform() < p; }

ZipfSampler::ZipfSampler(std::int64_t n, double s) : n_(n), log_(s == 1.0) {
  // Rejection-inversion would be overkill for workload keys; a simple
  // normalized power-law inversion over a truncated harmonic sum suffices
  // and stays deterministic.
  if (n_ <= 1) return;  // every draw is key 0
  if (log_) {
    h_ = std::log(static_cast<double>(n));
    return;
  }
  oms_ = 1.0 - s;
  h_ = (std::pow(static_cast<double>(n), oms_) - 1.0) / oms_;
  inv_ = 1.0 / oms_;
}

}  // namespace sage
