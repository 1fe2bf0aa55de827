// Fig 1 — Inter-site throughput variability over one week.
//
// From a client VM in North EU, probe the TCP throughput towards the other
// five datacenters for seven simulated days (100 MB-class probes; here 8 MB
// every 10 minutes to keep the event count sane — the per-flow statistics
// are identical). Reports mean ± stddev per destination plus the
// coefficient of variation and the worst observed dip, i.e. the "drops and
// bursts can appear at any time" shape.
#include "bench_util.hpp"
#include "common/stats.hpp"

namespace sage::bench {
namespace {

void run() {
  World world(/*seed=*/2013);
  auto& provider = *world.provider;
  const auto src = provider.provision(cloud::Region::kNorthEU, cloud::VmSize::kSmall);

  std::array<cloud::VmHandle, cloud::kRegionCount> dst;
  for (cloud::Region r : cloud::kAllRegions) {
    if (r == cloud::Region::kNorthEU) continue;
    dst[cloud::region_index(r)] = provider.provision(r, cloud::VmSize::kSmall);
  }

  std::array<OnlineStats, cloud::kRegionCount> stats;
  std::array<SampleSet, cloud::kRegionCount> samples;

  const int rounds = 7 * 24 * 6;  // every 10 min for a week
  for (int i = 0; i < rounds; ++i) {
    for (cloud::Region r : cloud::kAllRegions) {
      if (r == cloud::Region::kNorthEU) continue;
      bool done = false;
      provider.transfer(src.id, dst[cloud::region_index(r)].id, Bytes::mb(8), {},
                        [&, r](const cloud::FlowResult& result) {
                          if (result.ok()) {
                            const double mbps = result.achieved_rate().to_mb_per_sec();
                            stats[cloud::region_index(r)].add(mbps);
                            samples[cloud::region_index(r)].add(mbps);
                          }
                          done = true;
                        });
      world.run_until([&] { return done; });
    }
    world.run_for(SimDuration::minutes(10));
  }

  TextTable t({"Link (from NEU)", "Samples", "Mean MB/s", "Stddev", "CoV", "Min", "p5",
               "Max"});
  for (cloud::Region r : cloud::kAllRegions) {
    if (r == cloud::Region::kNorthEU) continue;
    const OnlineStats& s = stats[cloud::region_index(r)];
    t.add_row({std::string(cloud::region_code(r)), std::to_string(s.count()),
               TextTable::num(s.mean(), 2), TextTable::num(s.stddev(), 2),
               TextTable::num(s.stddev() / s.mean(), 2), TextTable::num(s.min(), 2),
               TextTable::num(samples[cloud::region_index(r)].quantile(0.05), 2),
               TextTable::num(s.max(), 2)});
  }
  print_table(t);
  print_note(
      "\nShape check: nearby links (WEU) are fast but still variable; "
      "transatlantic links are slower AND proportionally noisier (higher CoV), "
      "with deep un-forecastable dips (min << p5 << mean).");
}

}  // namespace
}  // namespace sage::bench

int main(int argc, char** argv) {
  sage::bench::BenchContext ctx(argc, argv, "fig1_variability", "Fig 1",
                                "One week of inter-datacenter TCP throughput from North EU");
  sage::bench::run();
  return ctx.finish();
}
