// Pure helpers of the benchmark driver, kept free of simulator types so the
// self-tests (selftest.cpp) can pin them on synthetic inputs:
//
//   * tail percentile selection: the highest percentile at or below the one
//     asked for that still has at least ten samples beyond it;
//   * step attribution: the layer a traced engine step is charged to, from
//     which layers' counters moved during the step;
//   * the seeded input generator and the outcome digest.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sage::perfbench {

// ---------------------------------------------------------------------------
// Percentiles.

struct Percentile {
  double value = 0.0;
  /// Quantile actually reported, in (0, 1].
  double q = 0.0;
  /// Samples the percentile was taken over.
  std::size_t samples = 0;
};

/// Nearest-rank percentile of `xs` at quantile `q`, lowered to the highest
/// quantile that leaves at least ten samples above the chosen rank. With
/// twenty or fewer samples no such tail exists; the median is reported. An
/// empty set reports zero with zero samples.
inline Percentile tail_percentile(std::vector<double> xs, double q) {
  Percentile p;
  p.samples = xs.size();
  if (xs.empty()) return p;
  const std::size_t n = xs.size();
  constexpr std::size_t kBeyond = 10;
  // Rank r (1-based) leaves n - r samples beyond it; require n - r >= 10.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kBeyond) {
    rank = n > 2 * kBeyond ? n - kBeyond : (n + 1) / 2;
  }
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(rank - 1), xs.end());
  p.value = xs[rank - 1];
  p.q = static_cast<double>(rank) / static_cast<double>(n);
  return p;
}

inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// ---------------------------------------------------------------------------
// Step attribution.

/// Layers a traced step can be charged to, in precedence order: a step is
/// charged to the first layer whose counters moved. Chaos events and
/// control-plane decisions usually drag lower layers along (a region outage
/// aborts flows, a send starts a transfer), so the layer that initiated the
/// step wins over the layers it touched.
enum class Layer : std::uint8_t { kChaos, kCore, kStream, kNet, kMonitor, kCloud, kIdle };
inline constexpr std::size_t kLayerCount = 7;

inline constexpr std::string_view layer_name(Layer l) {
  constexpr std::string_view kNames[kLayerCount] = {"chaos", "core",  "stream", "net",
                                                    "monitor", "cloud", "idle"};
  return kNames[static_cast<std::size_t>(l)];
}

/// Bit of `l` in a moved-layers mask.
inline constexpr std::uint32_t layer_bit(Layer l) {
  return 1u << static_cast<unsigned>(l);
}

/// The layer charged for a step whose counters moved as `moved` says
/// (bits from layer_bit; the kIdle bit is ignored). No bit set = idle.
inline constexpr Layer attribute_step(std::uint32_t moved) {
  moved &= layer_bit(Layer::kIdle) - 1u;
  if (moved == 0) return Layer::kIdle;
  return static_cast<Layer>(std::countr_zero(moved));
}

// ---------------------------------------------------------------------------
// Seeded inputs and digests.

/// SplitMix64: the input generator. Independent of the simulator's own RNG
/// so the program receives only the generated schedule.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

/// FNV-1a over simulated outcomes, printed per run so any change to
/// simulated results shows as a new digest.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 0; i < 16; ++i) s[15 - i] = kHex[(h_ >> (4 * i)) & 0xfu];
    return s;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace sage::perfbench
