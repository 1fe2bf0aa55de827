// Self-tests for the benchmark driver's own logic (bench_logic.hpp):
// percentile selection with its sample count, step-attribution precedence
// on a synthetic sequence of counter moves, and the input generator and
// digest. Prints each failure and exits non-zero if any check fails.
//
// Run: python3 perfbench/run.py --selftest (also validates the JSON schema).
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_logic.hpp"

namespace {

using namespace sage::perfbench;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> xs(static_cast<std::size_t>(n));
  std::iota(xs.begin(), xs.end(), 1.0);
  return xs;
}

void test_percentiles() {
  // 1000 samples support p99 with exactly ten samples beyond it.
  Percentile p = tail_percentile(one_to(1000), 0.99);
  expect(p.value == 990.0 && p.q == 0.99 && p.samples == 1000, "p99 of 1000 samples");

  // 500 samples do not: the tail is lowered to p98 (rank 490, ten beyond).
  p = tail_percentile(one_to(500), 0.99);
  expect(p.value == 490.0 && std::abs(p.q - 0.98) < 1e-12 && p.samples == 500,
         "p99 of 500 samples lowers to p98");

  // The median is untouched when the tail allows it.
  p = tail_percentile(one_to(500), 0.50);
  expect(p.value == 250.0 && p.q == 0.5, "p50 of 500 samples");

  // Twenty or fewer samples have no tail with ten beyond: report the median.
  p = tail_percentile(one_to(15), 0.95);
  expect(p.value == 8.0 && p.samples == 15, "p95 of 15 samples falls back to the median");

  // Input order does not matter.
  std::vector<double> shuffled = one_to(1000);
  InputRng rng(7);
  for (std::size_t k = shuffled.size() - 1; k > 0; --k) {
    std::swap(shuffled[k], shuffled[rng.below(k + 1)]);
  }
  expect(tail_percentile(shuffled, 0.99).value == 990.0, "p99 of shuffled samples");

  p = tail_percentile({}, 0.5);
  expect(p.value == 0.0 && p.samples == 0, "empty sample set");

  expect(median({3.0, 1.0, 2.0}) == 2.0 && median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median");
}

void test_attribution() {
  // A synthetic step sequence: which layers' counters moved, and the layer
  // the step must be charged to under chaos > core > stream > net >
  // monitor > cloud, idle when nothing moved.
  struct Step {
    std::uint32_t moved;
    Layer want;
    double ns;
  };
  const auto bit = layer_bit;
  const Step steps[] = {
      {0, Layer::kIdle, 5},
      {bit(Layer::kCloud), Layer::kCloud, 7},
      {bit(Layer::kMonitor) | bit(Layer::kCloud), Layer::kMonitor, 11},
      {bit(Layer::kNet) | bit(Layer::kCloud), Layer::kNet, 13},
      {bit(Layer::kStream) | bit(Layer::kNet) | bit(Layer::kMonitor), Layer::kStream, 17},
      {bit(Layer::kCore) | bit(Layer::kStream) | bit(Layer::kCloud), Layer::kCore, 19},
      {bit(Layer::kChaos) | bit(Layer::kCore) | bit(Layer::kNet), Layer::kChaos, 23},
      {bit(Layer::kIdle), Layer::kIdle, 29},
      {bit(Layer::kCloud) | bit(Layer::kIdle), Layer::kCloud, 31},
  };
  double charged[kLayerCount] = {};
  for (const Step& s : steps) {
    const Layer got = attribute_step(s.moved);
    if (got != s.want) {
      std::fprintf(stderr, "FAIL: mask 0x%x charged to %s, want %s\n", s.moved,
                   std::string(layer_name(got)).c_str(), std::string(layer_name(s.want)).c_str());
      ++failures;
    }
    charged[static_cast<std::size_t>(got)] += s.ns;
  }
  expect(charged[static_cast<std::size_t>(Layer::kIdle)] == 34.0, "idle time accumulates");
  expect(charged[static_cast<std::size_t>(Layer::kCloud)] == 38.0, "cloud time accumulates");
  expect(charged[static_cast<std::size_t>(Layer::kChaos)] == 23.0, "chaos time accumulates");
}

void test_inputs_and_digest() {
  InputRng a(42);
  InputRng b(42);
  InputRng c(43);
  bool same = true;
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t x = a.next();
    same = same && x == b.next();
    differs = differs || x != c.next();
  }
  expect(same, "same seed gives the same inputs");
  expect(differs, "different seeds give different inputs");
  for (int i = 0; i < 1000; ++i) {
    const double u = a.uniform();
    if (u < 0.0 || u >= 1.0) {
      expect(false, "uniform() in [0, 1)");
      break;
    }
  }

  Digest d1;
  Digest d2;
  d1.add(1);
  d1.add(2);
  d2.add(2);
  d2.add(1);
  expect(d1.value() != d2.value(), "digest is order sensitive");
  expect(d1.hex().size() == 16, "digest hex width");
}

}  // namespace

int main() {
  test_percentiles();
  test_attribution();
  test_inputs_and_digest();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
