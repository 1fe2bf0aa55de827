#include "workload/workloads.hpp"

#include <memory>
#include <string>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace sage::workload {

using stream::AggregateFn;
using stream::JobGraph;
using stream::Record;
using stream::SourceSpec;

JobGraph make_sensor_grid_job(const SensorGridParams& params) {
  SAGE_CHECK(!params.sites.empty());
  SAGE_CHECK(params.filter_keep_fraction > 0.0 && params.filter_keep_fraction <= 1.0);
  JobGraph g;

  // Global stage at the aggregation site.
  const auto global_agg = g.add_operator(
      "global-mean", params.aggregation_site,
      stream::make_window_aggregate("global-mean", params.global_window,
                                    AggregateFn::kMean));
  const auto sink = g.add_sink("dashboard", params.aggregation_site);
  g.connect(global_agg, sink);

  for (std::size_t i = 0; i < params.sites.size(); ++i) {
    const cloud::Region site = params.sites[i];
    const std::string suffix = std::string("@").append(cloud::region_code(site));

    SourceSpec spec;
    spec.records_per_sec = params.records_per_sec_per_site;
    spec.record_size = params.record_size;
    spec.key_count = params.sensors_per_site;
    spec.value_mean = 20.0;  // degrees-ish sensor readings
    spec.value_stddev = 5.0;
    const auto source = g.add_source("sensors" + suffix, site, spec);

    // Deterministic pseudo-random keep/drop by key hash: keeps the filter a
    // pure function (required for replayable tests).
    const double keep = params.filter_keep_fraction;
    const auto filter = g.add_operator(
        "quality-filter" + suffix, site,
        stream::make_key_filter("quality-filter", [keep](std::uint64_t key) {
          const double u =
              static_cast<double>(hash_u64(key) >> 11) * 0x1.0p-53;
          return u < keep;
        }));
    const auto local_agg = g.add_operator(
        "site-mean" + suffix, site,
        stream::make_window_aggregate("site-mean", params.local_window,
                                      AggregateFn::kMean));
    g.connect(source, filter);
    g.connect(filter, local_agg);
    g.connect(local_agg, global_agg);
  }
  g.validate();
  return g;
}

JobGraph make_clickstream_job(const ClickstreamParams& params) {
  SAGE_CHECK(!params.sites.empty());
  JobGraph g;

  // The global stage keeps only the trending URLs: per-site window counts
  // arrive as (url, count) records and the top-k operator sums them across
  // sites, emitting the k heaviest per trend window.
  const auto trend = g.add_operator(
      "global-trend", params.aggregation_site,
      stream::make_top_k("global-trend", params.trend_window, params.top_k,
                         /*sum_values=*/true));
  const auto sink = g.add_sink("trend-board", params.aggregation_site);
  g.connect(trend, sink);

  for (const cloud::Region site : params.sites) {
    const std::string suffix = std::string("@").append(cloud::region_code(site));

    SourceSpec spec;
    spec.records_per_sec = params.events_per_sec_per_site;
    spec.record_size = params.event_size;
    spec.key_count = params.url_count;
    spec.key_skew = params.url_skew;
    spec.value_mean = 1.0;  // one click
    spec.value_stddev = 0.0;
    const auto source = g.add_source("clicks" + suffix, site, spec);

    // Bot heuristic: a fixed slice of the key space is machine traffic.
    const auto bots = g.add_operator(
        "bot-filter" + suffix, site,
        stream::make_key_filter(
            "bot-filter", [](std::uint64_t key) { return (hash_u64(key) % 20) != 0; }));
    const auto counts = g.add_operator(
        "url-counts" + suffix, site,
        stream::make_window_aggregate("url-counts", params.count_window,
                                      AggregateFn::kCount));
    g.connect(source, bots);
    g.connect(bots, counts);
    g.connect(counts, trend);
  }
  g.validate();
  return g;
}

void run_metareduce(sim::SimEngine& engine, stream::TransferBackend& backend,
                    const MetaReduceParams& params,
                    std::function<void(const MetaReduceResult&)> done) {
  SAGE_CHECK(!params.sites.empty());
  SAGE_CHECK(params.files_per_site > 0);
  SAGE_CHECK(params.concurrency_per_site >= 1);
  SAGE_CHECK(done != nullptr);

  struct State {
    sim::SimEngine* engine = nullptr;
    stream::TransferBackend* backend = nullptr;
    MetaReduceParams params;
    std::function<void(const MetaReduceResult&)> done;
    SimTime began;
    std::vector<int> next_file;   // per site
    std::vector<int> completed;   // per site
    MetaReduceResult result;
    int sites_done = 0;
  };
  auto st = std::make_shared<State>();
  st->engine = &engine;
  st->backend = &backend;
  st->params = params;
  st->done = std::move(done);
  st->began = engine.now();
  st->next_file.assign(params.sites.size(), 0);
  st->completed.assign(params.sites.size(), 0);

  // One pull-loop per site with bounded in-flight files. The loop closure
  // must outlive this scope (completions fire later), so it lives in a
  // shared holder that each in-flight completion keeps alive. The closure
  // itself holds the holder weakly; a strong self-reference would be a
  // cycle that outlives the run.
  auto holder = std::make_shared<std::function<void(std::size_t)>>();
  *holder = [st, self = std::weak_ptr(holder)](std::size_t site_idx) {
    State& s = *st;
    if (s.next_file[site_idx] >= s.params.files_per_site) return;
    ++s.next_file[site_idx];
    const cloud::Region site = s.params.sites[site_idx];
    s.backend->send(site, s.params.reducer_site, s.params.file_size,
                    [st, holder = self.lock(), site_idx](const stream::SendOutcome& o) {
                      State& s2 = *st;
                      if (o.ok) {
                        ++s2.result.files_moved;
                      } else {
                        ++s2.result.failures;
                      }
                      if (++s2.completed[site_idx] == s2.params.files_per_site) {
                        if (++s2.sites_done ==
                            static_cast<int>(s2.params.sites.size())) {
                          s2.result.total_time = s2.engine->now() - s2.began;
                          s2.done(s2.result);
                        }
                        return;
                      }
                      (*holder)(site_idx);
                    });
  };
  for (std::size_t i = 0; i < params.sites.size(); ++i) {
    const int burst = std::min(params.concurrency_per_site, params.files_per_site);
    for (int c = 0; c < burst; ++c) (*holder)(i);
  }
}

}  // namespace sage::workload
