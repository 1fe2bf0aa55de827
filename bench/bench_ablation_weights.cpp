// Ablation A — What each term of the WSI weight buys.
//
// The weighted estimator's trust weight is w = (gaussian + freshness)/2.
// This ablation re-runs the 24 h prediction experiment with each component
// knocked out, by reconstructing the weight behaviourally:
//   * full WSI         — as shipped;
//   * gaussian-only    — freshness forced to 0 (rare samples not boosted);
//   * freshness-only   — gaussian forced to 0 (no outlier rejection);
//   * unweighted (w=1) — degenerates to a pure exponential window.
// The knocked-out variants are emulated with custom estimator wrappers so
// the production code path stays untouched.
#include <cmath>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "monitor/estimator.hpp"

namespace sage::bench {
namespace {

/// Reimplementation of the WSI recurrence with the weight formula swapped
/// in, for knock-out comparisons.
class AblatedWsi {
 public:
  enum class Mode { kFull, kGaussianOnly, kFreshnessOnly, kUnweighted };

  AblatedWsi(Mode mode, std::size_t history, SimDuration reference)
      : mode_(mode), h_(static_cast<double>(history)), reference_(reference) {}

  void add(SimTime t, double value) {
    if (n_ == 0) {
      mu_ = value;
      var_ = 0.0;
    } else {
      const double sigma = std::max(std::sqrt(var_), 1e-3 * std::max(std::abs(mu_), 1e-12));
      const double d = (mu_ - value) / sigma;
      const double gaussian = std::exp(-0.5 * d * d);
      const double freshness =
          std::clamp((t - last_) / reference_, 0.0, 1.0);
      double w = 1.0;
      switch (mode_) {
        case Mode::kFull:
          w = (gaussian + freshness) / 2.0;
          break;
        case Mode::kGaussianOnly:
          w = gaussian / 2.0;
          break;
        case Mode::kFreshnessOnly:
          w = freshness / 2.0;
          break;
        case Mode::kUnweighted:
          w = 1.0;
          break;
      }
      const double g = std::max(w, 0.3);
      const double residual = value - mu_;
      mu_ = ((h_ - w) * mu_ + w * value) / h_;
      var_ = ((h_ - g) * var_ + g * residual * residual) / h_;
    }
    last_ = t;
    ++n_;
  }

  [[nodiscard]] double mean() const { return mu_; }

 private:
  Mode mode_;
  double h_;
  SimDuration reference_;
  double mu_ = 0.0;
  double var_ = 0.0;
  SimTime last_;
  std::size_t n_ = 0;
};

struct RegimeErrors {
  double full = 0.0;
  double gaussian = 0.0;
  double freshness = 0.0;
  double unweighted = 0.0;
};

/// `sparse` switches from dense 1-minute sampling to irregular gaps of
/// 1-30 minutes — the regime the freshness term exists for: after a long
/// quiet period the link has drifted, and the next sample must be adopted
/// quickly even though it sits far from the stale mean.
RegimeErrors run_regime(bool sparse) {
  World world(/*seed=*/321);  // same trace family as Fig 3
  auto& provider = *world.provider;
  const auto src = provider.provision(cloud::Region::kNorthUS, cloud::VmSize::kSmall);
  const auto dst = provider.provision(cloud::Region::kNorthEU, cloud::VmSize::kSmall);

  const SimDuration reference = SimDuration::minutes(10);
  AblatedWsi full(AblatedWsi::Mode::kFull, 12, reference);
  AblatedWsi gaussian(AblatedWsi::Mode::kGaussianOnly, 12, reference);
  AblatedWsi freshness(AblatedWsi::Mode::kFreshnessOnly, 12, reference);
  AblatedWsi unweighted(AblatedWsi::Mode::kUnweighted, 12, reference);

  OnlineStats err_full;
  OnlineStats err_gaussian;
  OnlineStats err_freshness;
  OnlineStats err_unweighted;

  const auto& link =
      provider.topology().link(cloud::Region::kNorthUS, cloud::Region::kNorthEU);
  auto oracle_mbps = [&] {
    const double factor =
        provider.fabric()
            .pair_capacity_now(cloud::Region::kNorthUS, cloud::Region::kNorthEU)
            .bytes_per_second() /
        link.capacity.bytes_per_second();
    return link.per_flow_cap.to_mb_per_sec() * factor;
  };

  Rng gaps(9);
  int scored = 0;
  const SimTime horizon = world.engine.now() + SimDuration::hours(24);
  while (world.engine.now() < horizon) {
    bool done = false;
    double sample = 0.0;
    provider.transfer(src.id, dst.id, Bytes::mb(8), {},
                      [&](const cloud::FlowResult& r) {
                        if (r.ok()) sample = r.achieved_rate().to_mb_per_sec();
                        done = true;
                      });
    world.run_until([&] { return done; });
    if (sample > 0.0) {
      if (++scored > 30) {
        const double truth = oracle_mbps();
        const auto rel = [&](double est) { return std::abs(est - truth) / truth; };
        err_full.add(rel(full.mean()));
        err_gaussian.add(rel(gaussian.mean()));
        err_freshness.add(rel(freshness.mean()));
        err_unweighted.add(rel(unweighted.mean()));
      }
      const SimTime now = world.engine.now();
      full.add(now, sample);
      gaussian.add(now, sample);
      freshness.add(now, sample);
      unweighted.add(now, sample);
    }
    world.run_for(sparse ? SimDuration::minutes(gaps.uniform(1.0, 30.0))
                         : SimDuration::minutes(1));
  }

  return RegimeErrors{err_full.mean() * 100, err_gaussian.mean() * 100,
                      err_freshness.mean() * 100, err_unweighted.mean() * 100};
}

void run() {
  const RegimeErrors dense = run_regime(false);
  const RegimeErrors sparse = run_regime(true);
  TextTable t({"Variant", "Dense 1-min sampling err %", "Sparse irregular err %"});
  t.add_row({"full WSI (gaussian + freshness)", TextTable::num(dense.full, 2),
             TextTable::num(sparse.full, 2)});
  t.add_row({"gaussian only", TextTable::num(dense.gaussian, 2),
             TextTable::num(sparse.gaussian, 2)});
  t.add_row({"freshness only", TextTable::num(dense.freshness, 2),
             TextTable::num(sparse.freshness, 2)});
  t.add_row({"unweighted exp. window", TextTable::num(dense.unweighted, 2),
             TextTable::num(sparse.unweighted, 2)});
  print_table(t);
  print_note(
      "\nShape check: under dense sampling the gaussian (glitch-rejection) "
      "term carries the accuracy and freshness is inert; under sparse "
      "irregular sampling, gaussian-only distrusts the post-gap samples it "
      "most needs and the freshness term restores tracking. Only the full "
      "weight is strong in both regimes.");
}

}  // namespace
}  // namespace sage::bench

int main(int argc, char** argv) {
  sage::bench::BenchContext ctx(argc, argv, "ablation_weights", "Ablation A",
                                "WSI weight-function knock-outs (24 h trace)");
  sage::bench::run();
  return ctx.finish();
}
