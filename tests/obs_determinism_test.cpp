// Differential observability suite.
//
// The observability layer's two core promises, pinned by construction:
//   1. enabling metrics never perturbs a simulation — the same seed
//      produces bit-identical sim results with obs on or off;
//   2. obs output itself is deterministic — metric snapshots are
//      byte-identical across harness thread counts and repeated runs.
// Plus the engine event-accounting invariant: events_scheduled() ==
// events_fired() + events_cancelled() + live_events(), through cancels,
// reschedules and firings.
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "harness/scenario.hpp"
#include "net/transfer.hpp"
#include "obs/obs.hpp"
#include "test_util.hpp"

namespace sage {
namespace {

/// Set an environment variable for the scope of one test body.
struct ScopedEnv {
  std::string key;
  ScopedEnv(const char* k, const char* v) : key(k) { ::setenv(k, v, 1); }
  ~ScopedEnv() { ::unsetenv(key.c_str()); }
};

// ---------------------------------------------------------------------------
// Engine event accounting.
// ---------------------------------------------------------------------------

void expect_accounting(const sim::SimEngine& e) {
  EXPECT_EQ(e.events_scheduled(),
            e.events_fired() + e.events_cancelled() + e.live_events());
}

TEST(EventAccounting, InvariantHoldsThroughCancelAndFire) {
  sim::SimEngine engine;
  expect_accounting(engine);

  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(engine.schedule_after(SimDuration::seconds(i + 1), [] {}));
  }
  EXPECT_EQ(engine.events_scheduled(), 10u);
  EXPECT_EQ(engine.live_events(), 10u);
  expect_accounting(engine);

  // Cancel every other event: each leaves the queue at once, so the
  // earliest pending event is now the one at 2 s.
  for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
  EXPECT_EQ(engine.events_cancelled(), 5u);
  EXPECT_EQ(engine.live_events(), 5u);
  SimTime next;
  ASSERT_TRUE(engine.peek_next_time(&next));
  EXPECT_EQ(next, SimTime::epoch() + SimDuration::seconds(2));
  expect_accounting(engine);

  // A reschedule counts one cancel plus one schedule and keeps the event live.
  EXPECT_TRUE(engine.reschedule(handles[1], SimTime::epoch() + SimDuration::seconds(20)));
  EXPECT_EQ(engine.events_scheduled(), 11u);
  EXPECT_EQ(engine.events_cancelled(), 6u);
  EXPECT_EQ(engine.live_events(), 5u);
  expect_accounting(engine);

  // Cancelling twice (or cancelling a dead handle) must not double-count.
  handles[0].cancel();
  EXPECT_EQ(engine.events_cancelled(), 6u);
  expect_accounting(engine);

  engine.run();
  EXPECT_EQ(engine.events_fired(), 5u);
  EXPECT_EQ(engine.live_events(), 0u);
  EXPECT_EQ(engine.now(), SimTime::epoch() + SimDuration::seconds(20));
  expect_accounting(engine);

  // Cancelling or rescheduling after the event fired is inert too.
  handles[1].cancel();
  EXPECT_FALSE(engine.reschedule(handles[3], SimTime::epoch() + SimDuration::seconds(30)));
  EXPECT_EQ(engine.events_cancelled(), 6u);
  EXPECT_EQ(engine.events_scheduled(), 11u);
  expect_accounting(engine);
}

TEST(EventAccounting, RunUntilSentinelCancelsStayConsistent) {
  // World::run_until plants a deadline sentinel and cancels it on exit, so
  // on an empty world each call schedules and cancels one event. The
  // counters must agree with live_events() across repeated calls.
  bench::World world(/*seed=*/7);
  for (int i = 0; i < 5; ++i) {
    const bench::RunOutcome out = world.run_until([] { return false; });
    EXPECT_EQ(out.reason, bench::RunStop::kIdle);
  }
  const sim::SimEngine& e = world.engine;
  EXPECT_EQ(e.events_scheduled(), 5u);
  EXPECT_EQ(e.events_cancelled(), 5u);
  EXPECT_EQ(e.events_fired(), 0u);
  EXPECT_EQ(e.live_events(), 0u);
  expect_accounting(e);
}

TEST(EventAccounting, PublishedMetricsMatchAccessors) {
  sim::SimEngine engine;
  engine.enable_obs(obs::ObsConfig{});
  ASSERT_NE(engine.obs(), nullptr);

  (void)engine.schedule_after(SimDuration::seconds(1), [] {});
  sim::EventHandle doomed = engine.schedule_after(SimDuration::seconds(2), [] {});
  doomed.cancel();
  engine.run();

  engine.publish_obs_metrics();
  const auto& m = engine.obs()->metrics();
  ASSERT_NE(m.find_counter("sim.events.scheduled"), nullptr);
  EXPECT_EQ(m.find_counter("sim.events.scheduled")->value(), engine.events_scheduled());
  EXPECT_EQ(m.find_counter("sim.events.fired")->value(), engine.events_fired());
  EXPECT_EQ(m.find_counter("sim.events.cancelled")->value(), engine.events_cancelled());
  EXPECT_EQ(m.find_gauge("sim.events.live")->value(),
            static_cast<double>(engine.live_events()));

  // publish is delta-based: repeating it with no new activity changes nothing.
  engine.publish_obs_metrics();
  EXPECT_EQ(m.find_counter("sim.events.scheduled")->value(), engine.events_scheduled());
  EXPECT_EQ(m.find_counter("sim.events.fired")->value(), engine.events_fired());
  EXPECT_EQ(m.find_counter("sim.events.cancelled")->value(), engine.events_cancelled());
}

// ---------------------------------------------------------------------------
// Registry semantics.
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, SnapshotIsInsertionOrderIndependent) {
  obs::MetricsRegistry a;
  a.counter("z.count")->add(3);
  a.gauge("a.depth", {{"site", "NEU"}})->set(2.5);
  a.histogram("m.lat", {1.0, 10.0})->observe(4.0);

  obs::MetricsRegistry b;
  b.histogram("m.lat", {1.0, 10.0})->observe(4.0);
  b.gauge("a.depth", {{"site", "NEU"}})->set(2.5);
  b.counter("z.count")->add(3);

  EXPECT_EQ(a.snapshot_json(), b.snapshot_json());
}

TEST(MetricsRegistryTest, KeysSortLabelsCanonically) {
  const std::string key = obs::MetricsRegistry::make_key(
      "fab.bytes", {{"z", "1"}, {"a", "2"}});
  EXPECT_EQ(key, "fab.bytes{a=2,z=1}");
  // Same labels in any order resolve to the same cell.
  obs::MetricsRegistry r;
  obs::Counter* c1 = r.counter("fab.bytes", {{"z", "1"}, {"a", "2"}});
  obs::Counter* c2 = r.counter("fab.bytes", {{"a", "2"}, {"z", "1"}});
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(r.size(), 1u);
}

TEST(MetricsRegistryTest, FindNeverCreatesAndChecksKind) {
  obs::MetricsRegistry r;
  r.counter("c")->add();
  EXPECT_EQ(r.find_gauge("c"), nullptr);   // kind mismatch
  EXPECT_EQ(r.find_counter("x"), nullptr); // miss
  EXPECT_EQ(r.size(), 1u);                 // finds created nothing
  ASSERT_NE(r.find_counter("c"), nullptr);
  EXPECT_EQ(r.find_counter("c")->value(), 1u);
}

TEST(MetricsRegistryTest, MergeAddsCountersAndBucketsGaugesLastWriteWins) {
  obs::MetricsRegistry a;
  a.counter("n")->add(2);
  a.gauge("g")->set(1.0);
  a.histogram("h", {5.0})->observe(3.0);
  a.counter("only_a")->add(1);

  obs::MetricsRegistry b;
  b.counter("n")->add(5);
  b.gauge("g")->set(9.0);
  b.histogram("h", {5.0})->observe(7.0);
  b.counter("only_b")->add(4);

  a.merge(b);
  EXPECT_EQ(a.find_counter("n")->value(), 7u);
  EXPECT_EQ(a.find_gauge("g")->value(), 9.0);
  EXPECT_EQ(a.find_counter("only_a")->value(), 1u);
  EXPECT_EQ(a.find_counter("only_b")->value(), 4u);
  const obs::Histogram* h = a.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_DOUBLE_EQ(h->sum(), 10.0);
  ASSERT_EQ(h->counts().size(), 2u);
  EXPECT_EQ(h->counts()[0], 1u);  // 3.0 <= 5.0
  EXPECT_EQ(h->counts()[1], 1u);  // 7.0 -> +inf bucket
}

TEST(MetricsRegistryTest, HistogramBucketsAreInclusiveUpperBounds) {
  obs::MetricsRegistry r;
  obs::Histogram* h = r.histogram("lat", {1.0, 2.0});
  h->observe(1.0);   // first bucket (inclusive)
  h->observe(1.5);   // second
  h->observe(99.0);  // overflow
  EXPECT_EQ(h->counts()[0], 1u);
  EXPECT_EQ(h->counts()[1], 1u);
  EXPECT_EQ(h->counts()[2], 1u);
  EXPECT_EQ(h->count(), 3u);
}

// ---------------------------------------------------------------------------
// Differential: metric snapshots across harness thread counts, and sim
// results with obs on vs off.
// ---------------------------------------------------------------------------

struct Cell {
  int vms = 0;
  std::uint64_t seed = 0;
};

double cell_transfer_seconds(const Cell& cell) {
  // bench::World reads SAGE_OBS, so this grid point is observed whenever the
  // surrounding test enabled it — exactly like the figure benches.
  bench::World world(cell.seed);
  auto& provider = *world.provider;
  const auto src = provider.provision(cloud::Region::kNorthEU, cloud::VmSize::kSmall);
  const auto dst = provider.provision(cloud::Region::kNorthUS, cloud::VmSize::kSmall);
  std::vector<net::Lane> lanes = net::direct_lane(src.id, dst.id);
  for (int i = 1; i < cell.vms; ++i) {
    const auto helper = provider.provision(cloud::Region::kNorthEU, cloud::VmSize::kSmall);
    lanes.push_back(net::Lane{{src.id, helper.id, dst.id}});
  }
  net::TransferConfig config;
  config.streams_per_hop = 1;
  double seconds = 0.0;
  bool done = false;
  net::GeoTransfer transfer(provider, Bytes::mb(48), lanes, config,
                            [&](const net::TransferResult& r) {
                              seconds = r.elapsed().to_seconds();
                              done = true;
                            });
  transfer.start();
  EXPECT_TRUE(world.run_until([&] { return done; }));
  return seconds;
}

struct SweepOutput {
  std::string table;
  std::vector<std::string> metrics;  // per-task snapshots, task order
};

SweepOutput render_sweep(int threads) {
  std::vector<Cell> grid;
  for (int vms = 1; vms <= 3; ++vms) {
    for (std::uint64_t seed : {21u, 22u}) grid.push_back({vms, seed});
  }
  harness::ScenarioRunner runner(threads);
  const auto times = runner.sweep("obs_transfers", grid, cell_transfer_seconds);

  SweepOutput out;
  TextTable t({"VMs", "Seed", "Time s"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    t.add_row({std::to_string(grid[i].vms), std::to_string(grid[i].seed),
               TextTable::num(times[i], 3)});
  }
  out.table = t.render();
  for (const harness::TaskTiming& task : runner.sweeps().back().tasks) {
    out.metrics.push_back(task.metrics_json);
  }
  return out;
}

TEST(ObsDeterminism, MetricSnapshotsIdenticalAcrossThreadCounts) {
  ScopedEnv obs_on("SAGE_OBS", "1");
  const SweepOutput one = render_sweep(1);
  const SweepOutput four = render_sweep(4);
  EXPECT_FALSE(one.table.empty());
  EXPECT_EQ(one.table, four.table);
  ASSERT_EQ(one.metrics.size(), four.metrics.size());
  for (std::size_t i = 0; i < one.metrics.size(); ++i) {
    EXPECT_FALSE(one.metrics[i].empty()) << "task " << i << " collected no metrics";
    EXPECT_EQ(one.metrics[i], four.metrics[i]) << "task " << i;
  }
  // And the obs-on sweep must contain the layers this grid exercises.
  EXPECT_NE(one.metrics[0].find("\"transfer.completed\""), std::string::npos);
  EXPECT_NE(one.metrics[0].find("\"fabric.bytes.moved\""), std::string::npos);
  EXPECT_NE(one.metrics[0].find("\"sim.events.fired\""), std::string::npos);
}

TEST(ObsDeterminism, RepeatedObservedParallelRunsAreIdentical) {
  ScopedEnv obs_on("SAGE_OBS", "1");
  const SweepOutput a = render_sweep(4);
  const SweepOutput b = render_sweep(4);
  EXPECT_EQ(a.table, b.table);
  EXPECT_EQ(a.metrics, b.metrics);
}

TEST(ObsDeterminism, SimResultsIdenticalWithObsOnOrOff) {
  ::unsetenv("SAGE_OBS");
  const SweepOutput off = render_sweep(2);
  std::string on_table;
  {
    ScopedEnv obs_on("SAGE_OBS", "1");
    on_table = render_sweep(2).table;
  }
  // Observability must not perturb the simulation: the rendered results are
  // bit-identical whether or not metrics were collected.
  EXPECT_EQ(off.table, on_table);
  // And with obs off, no task collected anything.
  for (const std::string& m : off.metrics) EXPECT_TRUE(m.empty());
}

}  // namespace
}  // namespace sage
