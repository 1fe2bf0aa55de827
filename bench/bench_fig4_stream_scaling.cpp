// Fig 4 — Geo-streaming latency and sustained throughput vs input rate.
//
// A collect-centrally analysis: each site filters its event stream and
// forwards the surviving records to one aggregation site, whose global
// 2-second window feeds the dashboard sink. Unlike a pre-aggregating
// pipeline (where the WAN carries only window summaries), the WAN here
// carries volume proportional to the input rate — so the sweep exposes the
// geo bottleneck: latency is flat while the per-site WAN share keeps up,
// then queueing blows the tail up once the inter-site paths saturate.
// Deployments of 1, 3 and 6 sites; SAGE is the WAN backend.
#include "bench_util.hpp"
#include "core/sage.hpp"
#include "stream/operator.hpp"

namespace sage::bench {
namespace {

struct RunResult {
  double sink_records_per_sec = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  Bytes wan_bytes;
  std::uint64_t wan_failures = 0;
};

RunResult run_one(int sites, double rate) {
  World world(/*seed=*/static_cast<std::uint64_t>(4000 + sites * 17) +
                  static_cast<std::uint64_t>(rate));
  const std::vector<cloud::Region> all = {
      cloud::Region::kNorthUS, cloud::Region::kNorthEU, cloud::Region::kWestEU,
      cloud::Region::kEastUS,  cloud::Region::kSouthUS, cloud::Region::kWestUS};
  const cloud::Region hub = cloud::Region::kNorthUS;

  SageDeployOptions deploy;
  deploy.regions.assign(all.begin(), all.begin() + std::max(sites, 2));
  auto engine_ptr = deploy_sage(world, deploy);
  core::SageEngine& engine = *engine_ptr;

  stream::JobGraph g;
  const auto window = g.add_operator(
      "global-count", hub,
      stream::make_window_aggregate("global-count", SimDuration::seconds(2),
                                    stream::AggregateFn::kCount));
  const auto sink = g.add_sink("dashboard", hub);
  g.connect(window, sink);
  for (int i = 0; i < sites; ++i) {
    const cloud::Region site = all[static_cast<std::size_t>(i)];
    const std::string suffix = std::string("@").append(cloud::region_code(site));
    stream::SourceSpec spec;
    spec.records_per_sec = rate;
    spec.record_size = Bytes::of(200);
    spec.key_count = 500;
    const auto source = g.add_source("events" + suffix, site, spec);
    const auto filter = g.add_operator(
        "clean" + suffix, site, stream::make_key_filter("clean", [](std::uint64_t key) {
          return key % 5 != 0;  // drop 20%
        }));
    g.connect(source, filter);
    g.connect(filter, window);
  }

  stream::RuntimeConfig runtime_config;
  runtime_config.geo_batch_max_bytes = Bytes::mb(2);
  runtime_config.geo_batch_max_delay = SimDuration::millis(500);
  auto runtime = engine.run_job(std::move(g), runtime_config);
  runtime->start();
  const SimDuration span = SimDuration::minutes(4);
  world.run_for(span);
  runtime->stop();

  // Source records this grid point pushed through the pipeline — the
  // harness turns it into a records-per-wall-second figure in --json.
  harness::report_task_records(
      static_cast<std::uint64_t>(static_cast<double>(sites) * rate * span.to_seconds()));

  RunResult out;
  const auto& stats = runtime->sink_stats(sink);
  out.sink_records_per_sec = static_cast<double>(stats.records) / span.to_seconds();
  if (stats.latency_ms.count() > 0) {
    out.p50_ms = stats.latency_ms.quantile(0.5);
    out.p95_ms = stats.latency_ms.quantile(0.95);
  }
  out.wan_bytes = runtime->wan_stats().bytes;
  out.wan_failures = runtime->wan_stats().failures;
  return out;
}

struct Cell {
  int sites = 0;
  double rate = 0.0;
};

void run(BenchContext& ctx) {
  const std::vector<int> site_grid = ctx.smoke() ? std::vector<int>{1, 3}
                                                 : std::vector<int>{1, 3, 6};
  const std::vector<double> rate_grid =
      ctx.smoke() ? std::vector<double>{1000.0, 4000.0}
                  : std::vector<double>{1000.0, 4000.0, 16000.0};
  std::vector<Cell> grid;
  for (int sites : site_grid) {
    for (double rate : rate_grid) grid.push_back({sites, rate});
  }

  const auto results = ctx.sweep(
      "scaling", grid, [](const Cell& c) { return run_one(c.sites, c.rate); });

  TextTable t({"Sites", "Rate/site rec/s", "WAN volume", "p50 latency ms",
               "p95 latency ms"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const RunResult& r = results[i];
    t.add_row({std::to_string(grid[i].sites), TextTable::num(grid[i].rate, 0),
               to_string(r.wan_bytes), TextTable::num(r.p50_ms, 0),
               TextTable::num(r.p95_ms, 0)});
  }
  print_table(t);
  print_note(
      "\nShape check: the single-site run pays only the window delay at any "
      "rate. Multi-site runs add batching plus WAN transfer (a few seconds of "
      "p50); while the per-site event stream fits the inter-site paths the "
      "latency stays rate-independent, and once a site's stream outgrows its "
      "path (16k rec/s ~ 3.2 MB/s against a ~2.7 MB/s-class transatlantic "
      "flow ceiling) the tail blows up as WAN batches queue behind each "
      "other — the geo bottleneck, not CPU, is what limits scaling.");
}

}  // namespace
}  // namespace sage::bench

int main(int argc, char** argv) {
  sage::bench::BenchContext ctx(argc, argv, "fig4_stream_scaling", "Fig 4",
                                "Streaming scaling: latency/throughput vs rate and sites");
  sage::bench::run(ctx);
  return ctx.finish();
}
