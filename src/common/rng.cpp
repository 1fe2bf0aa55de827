#include "common/rng.hpp"

#include <algorithm>
#include <cmath>

namespace sage {
Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
}

Rng Rng::fork() { return Rng(next_u64()); }

double Rng::exponential(double rate) { return -std::log1p(-uniform()) / rate; }

bool Rng::chance(double p) { return uniform() < p; }

namespace {
/// At most 2^15 tabled keys: cuts and guide stay within 256 KB, and a guide
/// entry fits a uint16.
constexpr std::uint32_t kMaxTabled = 1u << 15;
}  // namespace

ZipfSampler::ZipfSampler(std::int64_t n, double s) : n_(n), log_(s == 1.0) {
  // Rejection-inversion would be overkill for workload keys; a simple
  // normalized power-law inversion over a truncated harmonic sum suffices
  // and stays deterministic.
  // Normalized over n + 1: x in [1, n + 1) covers every key 0 .. n - 1,
  // key j on [j + 1, j + 2).
  const double top = static_cast<double>(n) + 1.0;
  if (n_ > 1) {
    if (log_) {
      h_ = std::log(top);
    } else {
      oms_ = 1.0 - s;
      h_ = (std::pow(top, oms_) - 1.0) / oms_;
      inv_ = 1.0 / oms_;
    }
    tabled_ = static_cast<std::uint32_t>(std::min<std::int64_t>(n_, kMaxTabled));
  }

  // Cut j is the real u at which the continuous inversion reaches key j
  // (x = j + 1), stored as floor(cut * 2^31) and kept nondecreasing.
  constexpr double kUnits = 0x1p31;
  cuts_.assign(tabled_ + 2, 0);
  for (std::uint32_t j = 1; j <= tabled_; ++j) {
    const double lj = std::log(j + 1.0);
    const double cut = log_ ? lj / h_ : std::expm1(oms_ * lj) / (h_ * oms_);
    const double units = std::clamp(std::floor(cut * kUnits), 0.0, kUnits);
    cuts_[j] = std::max(cuts_[j - 1], static_cast<std::uint32_t>(units));
  }
  cuts_[tabled_ + 1] = UINT32_MAX;  // above every q: the scan stops at tabled_

  // Guide: two to four buckets per tabled key. A draw passes a given cut in
  // its scan with odds of about half a bucket, so a scan takes 0.125 to 0.25
  // steps on average.
  int bits = 1;
  while ((1u << bits) < 2 * tabled_) ++bits;
  guide_shift_ = kCoarseBits - bits;
  guide_.resize(std::size_t{1} << bits);
  std::uint32_t k = 0;
  for (std::size_t b = 0; b < guide_.size(); ++b) {
    const auto start = static_cast<std::uint32_t>(b << guide_shift_);
    while (cuts_[k + 1] <= start) ++k;
    guide_[b] = static_cast<std::uint16_t>(k);
  }

  // Guard. Let E bound how far, in u, the formula's key can be off the real
  // inversion's plus a computed cut's rounding. With eps = 2^-53, every
  // libm call within 2 ulps (4 eps), N = n + 1 (x < N) and
  // T = max(1, N^(1-s)), the largest t:
  //  * t = (u*h)*(1-s) + 1 carries <= 3.1 eps T of rounding. t is linear in
  //    u with slope h*(1-s), so in u that is <= 3.1 eps T |1/(1-s)| / h:
  //    the term that widens as s nears 1 (s == 1 has no t, and drops it);
  //  * pow's own error and the rounding of 1/(1-s) leave x with relative
  //    error <= (4 + 1.01 ln N) eps; dx/du = h x^s, so in u that is
  //    <= (4 + 1.01 ln N) eps x^(1-s) / h <= (4 + 1.01 ln N) eps T / h;
  //  * cut j = expm1(z) / (h (1-s)), z = (1-s) log(j+1), is off by
  //    <= (5 ln N T / h + 6) eps (or 5 eps at s == 1).
  // Summed and rounded up: E <= 8 eps ((|1/(1-s)| + 2 + ln N) T / h + 1).
  // Coarse unit q holds u in [q, q+1) / 2^31 and a stored cut is a floor,
  // so q - cuts_[k] >= G and cuts_[k+1] - q >= G with G = 1 + ceil(E 2^31)
  // keep every such u at least E inside key k's real cuts: the formula
  // returns k there. An ill-conditioned (n, s) gets a guard wide enough to
  // send its draws to the formula.
  if (tabled_ > 0) {
    const double amp = log_ ? 0.0 : std::abs(inv_);
    const double t_max = std::max(1.0, 1.0 + h_ * oms_);
    const double e = 0x1p-50 * ((amp + 2.0 + std::log(top)) * t_max / h_ + 1.0);
    guard_ = static_cast<std::uint32_t>(1.0 + std::min(std::ceil(e * kUnits), kUnits));
  }
}

std::int64_t ZipfSampler::invert(std::uint64_t m) const {
  if (n_ <= 1) return 0;
  const double u = static_cast<double>(m) * 0x1.0p-53;
  // Operand order is fixed: (u * h) * oms rounds differently from
  // u * (h * oms), and a one-ulp move in x can move a key.
  const double x = log_ ? std::exp(u * h_) : std::pow((u * h_) * oms_ + 1.0, inv_);
  // x can round up to n + 1 as u nears 1.
  return std::clamp<std::int64_t>(static_cast<std::int64_t>(x) - 1, 0, n_ - 1);
}

}  // namespace sage
