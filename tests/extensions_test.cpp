// Tests for the extension features: dissemination trees, sliding windows,
// top-k, monitoring history and introspection.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/introspection.hpp"
#include "core/sage.hpp"
#include "sched/broadcast.hpp"
#include "stream/operator.hpp"
#include "test_util.hpp"

namespace sage {
namespace {

using cloud::Region;
using sage::testing::StableWorld;
using sage::testing::run_until;

constexpr Region kNEU = Region::kNorthEU;
constexpr Region kWEU = Region::kWestEU;
constexpr Region kNUS = Region::kNorthUS;
constexpr Region kEUS = Region::kEastUS;
constexpr Region kWUS = Region::kWestUS;

void set_link(monitor::ThroughputMatrix& m, Region a, Region b, double mbps) {
  m.set(a, b, monitor::LinkEstimate{mbps, 0.0, 10});
}

// ---------------------------------------------------------------------------
// Widest spanning tree.
// ---------------------------------------------------------------------------

TEST(BroadcastTreeTest, PrefersRelayThroughFastSite) {
  monitor::ThroughputMatrix m;
  set_link(m, kNEU, kWEU, 10.0);  // fast regional hop
  set_link(m, kNEU, kNUS, 2.0);
  set_link(m, kWEU, kNUS, 6.0);  // WEU is the better feeder for NUS
  const auto tree = sched::widest_tree(m, kNEU, {kWEU, kNUS});
  ASSERT_EQ(tree.edges.size(), 2u);
  EXPECT_EQ(tree.edges[0].from, kNEU);
  EXPECT_EQ(tree.edges[0].to, kWEU);
  EXPECT_EQ(tree.edges[1].from, kWEU);
  EXPECT_EQ(tree.edges[1].to, kNUS);
  EXPECT_DOUBLE_EQ(tree.bottleneck_mbps(), 6.0);
}

TEST(BroadcastTreeTest, StarWhenSourceLinksDominate) {
  monitor::ThroughputMatrix m;
  for (Region t : {kWEU, kNUS, kEUS}) {
    set_link(m, kNEU, t, 10.0);
    for (Region o : {kWEU, kNUS, kEUS}) {
      if (t != o) set_link(m, t, o, 1.0);
    }
  }
  const auto tree = sched::widest_tree(m, kNEU, {kWEU, kNUS, kEUS});
  ASSERT_EQ(tree.edges.size(), 3u);
  for (const auto& e : tree.edges) EXPECT_EQ(e.from, kNEU);
}

TEST(BroadcastTreeTest, EdgesAreInDisseminationOrder) {
  monitor::ThroughputMatrix m;
  set_link(m, kNEU, kWEU, 10.0);
  set_link(m, kWEU, kEUS, 8.0);
  set_link(m, kEUS, kNUS, 7.0);
  set_link(m, kNEU, kEUS, 1.0);
  set_link(m, kNEU, kNUS, 1.0);
  const auto tree = sched::widest_tree(m, kNEU, {kWEU, kEUS, kNUS});
  ASSERT_EQ(tree.edges.size(), 3u);
  // Every edge's source was delivered to by an earlier edge (or is root).
  std::vector<Region> covered = {kNEU};
  for (const auto& e : tree.edges) {
    EXPECT_NE(std::find(covered.begin(), covered.end(), e.from), covered.end());
    covered.push_back(e.to);
  }
}

TEST(BroadcastTreeTest, ChildrenAccessorAndEmptyOnNoData) {
  monitor::ThroughputMatrix m;
  set_link(m, kNEU, kWEU, 5.0);
  const auto tree = sched::widest_tree(m, kNEU, {kWEU});
  EXPECT_EQ(tree.children_of(kNEU), (std::vector<Region>{kWEU}));
  EXPECT_TRUE(tree.children_of(kWEU).empty());
  // A target with no monitored path at all -> empty tree.
  const auto none = sched::widest_tree(m, kNEU, {kWUS});
  EXPECT_TRUE(none.empty());
}

TEST(BroadcastTreeTest, DeduplicatesTargetsAndIgnoresRoot) {
  monitor::ThroughputMatrix m;
  set_link(m, kNEU, kWEU, 5.0);
  const auto tree = sched::widest_tree(m, kNEU, {kWEU, kWEU, kNEU});
  EXPECT_EQ(tree.edges.size(), 1u);
}

// ---------------------------------------------------------------------------
// SageEngine::disseminate end-to-end.
// ---------------------------------------------------------------------------

TEST(DisseminateTest, DeliversToEveryTarget) {
  StableWorld world;
  core::SageConfig config;
  config.regions = {kNEU, kWEU, kEUS, kNUS};
  config.monitoring.probe_interval = SimDuration::minutes(1);
  core::SageEngine engine(*world.provider, config);
  engine.deploy();
  world.engine.run_until(world.engine.now() + SimDuration::minutes(10));

  bool done = false;
  core::SageEngine::DisseminateResult result;
  engine.disseminate(kNEU, {kWEU, kEUS, kNUS}, Bytes::mb(40),
                     [&](const core::SageEngine::DisseminateResult& r) {
                       result = r;
                       done = true;
                     });
  ASSERT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(6)));
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.arrivals.size(), 3u);
  EXPECT_EQ(result.tree_edges, 3);
  EXPECT_GT(result.elapsed.to_seconds(), 1.0);
  // Every requested region arrived exactly once.
  for (Region t : {kWEU, kEUS, kNUS}) {
    int count = 0;
    for (const auto& [r, at] : result.arrivals) count += (r == t) ? 1 : 0;
    EXPECT_EQ(count, 1) << cloud::region_name(t);
  }
}

TEST(DisseminateTest, ColdMapFallsBackToUnicastAndStillDelivers) {
  StableWorld world;
  core::SageConfig config;
  config.regions = {kNEU, kWEU, kNUS};
  core::SageEngine engine(*world.provider, config);
  engine.deploy();  // no warmup: empty map
  bool done = false;
  core::SageEngine::DisseminateResult result;
  engine.disseminate(kNEU, {kWEU, kNUS}, Bytes::mb(5),
                     [&](const core::SageEngine::DisseminateResult& r) {
                       result = r;
                       done = true;
                     });
  ASSERT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(6)));
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.arrivals.size(), 2u);
}

// ---------------------------------------------------------------------------
// Sliding window aggregation.
// ---------------------------------------------------------------------------

stream::Record rec(double value, std::uint64_t key, SimTime t = SimTime::epoch()) {
  stream::Record r;
  r.value = value;
  r.key = key;
  r.event_time = t;
  r.wire_size = Bytes::of(64);
  return r;
}

TEST(SlidingWindowTest, WindowCoversMultipleSlides) {
  stream::WindowAggregateOperator op("s", SimDuration::seconds(30),
                                     SimDuration::seconds(10), stream::AggregateFn::kSum);
  stream::RecordBatch none;
  // Slide 1: value 1; slide 2: value 2; slide 3: value 4.
  stream::RecordBatch b1;
  b1.add(rec(1.0, 7));
  op.process(0, b1, none);
  stream::RecordBatch out1;
  op.on_timer(SimTime::epoch() + SimDuration::seconds(10), out1);
  ASSERT_EQ(out1.size(), 1u);
  EXPECT_DOUBLE_EQ(out1.row(0).value, 1.0);

  stream::RecordBatch b2;
  b2.add(rec(2.0, 7));
  op.process(0, b2, none);
  stream::RecordBatch out2;
  op.on_timer(SimTime::epoch() + SimDuration::seconds(20), out2);
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_DOUBLE_EQ(out2.row(0).value, 3.0);  // 1 + 2 still in window

  stream::RecordBatch b3;
  b3.add(rec(4.0, 7));
  op.process(0, b3, none);
  stream::RecordBatch out3;
  op.on_timer(SimTime::epoch() + SimDuration::seconds(30), out3);
  ASSERT_EQ(out3.size(), 1u);
  EXPECT_DOUBLE_EQ(out3.row(0).value, 7.0);  // 1 + 2 + 4

  // Next slide: the first pane (value 1) expires out of the 30 s window.
  stream::RecordBatch out4;
  op.on_timer(SimTime::epoch() + SimDuration::seconds(40), out4);
  ASSERT_EQ(out4.size(), 1u);
  EXPECT_DOUBLE_EQ(out4.row(0).value, 6.0);  // 2 + 4
}

TEST(SlidingWindowTest, IdleKeysAreDropped) {
  stream::WindowAggregateOperator op("s", SimDuration::seconds(20),
                                     SimDuration::seconds(10), stream::AggregateFn::kCount);
  stream::RecordBatch none;
  stream::RecordBatch b;
  b.add(rec(1.0, 1));
  op.process(0, b, none);
  stream::RecordBatch out;
  op.on_timer(SimTime::epoch() + SimDuration::seconds(10), out);
  EXPECT_EQ(out.size(), 1u);
  // Two empty slides later the key's state must be gone.
  stream::RecordBatch o2;
  op.on_timer(SimTime::epoch() + SimDuration::seconds(20), o2);
  stream::RecordBatch o3;
  op.on_timer(SimTime::epoch() + SimDuration::seconds(30), o3);
  EXPECT_EQ(op.active_keys(), 0u);
}

TEST(SlidingWindowTest, EveryEmissionMatchesRefoldOracle) {
  // The oracle keeps every raw record. At each emission it re-folds, per
  // key, the records of the last `panes` slides: each slide from 0.0 in
  // arrival order, then the slides newest first. Keys drift upward and
  // every seventh slide is empty, so keys go idle and must drop out.
  struct Fold {
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::uint64_t count = 0;
    SimTime oldest;
  };
  using stream::AggregateFn;
  constexpr int kSlides = 40;
  const SimDuration slide = SimDuration::seconds(5);
  for (const int panes : {1, 2, 3, 6}) {
    for (const AggregateFn fn : {AggregateFn::kSum, AggregateFn::kCount, AggregateFn::kMean,
                                 AggregateFn::kMin, AggregateFn::kMax}) {
      SCOPED_TRACE("panes " + std::to_string(panes) + ", fn " +
                   std::to_string(static_cast<int>(fn)));
      stream::WindowAggregateOperator op("s", slide * panes, slide, fn);
      Rng rng(static_cast<std::uint64_t>(100 * panes) + static_cast<std::uint64_t>(fn));
      std::vector<std::vector<stream::Record>> slides;
      stream::RecordBatch none;
      for (int s = 0; s < kSlides; ++s) {
        std::vector<stream::Record>& recs = slides.emplace_back();
        const std::int64_t n = s % 7 == 6 ? 0 : rng.uniform_int(1, 120);
        for (std::int64_t i = 0; i < n; ++i) {
          const auto key = static_cast<std::uint64_t>(4 * (s / 5) + rng.uniform_int(0, 15));
          const SimTime t = SimTime::from_micros(rng.uniform_int(0, 1'000'000'000));
          recs.push_back(rec(rng.uniform(-5.0, 5.0), key, t));
        }
        for (std::size_t i = 0; i < recs.size();) {
          stream::RecordBatch batch;
          const auto len = static_cast<std::size_t>(rng.uniform_int(1, 40));
          for (; i < recs.size() && batch.size() < len; ++i) batch.add(recs[i]);
          op.process(0, batch, none);
        }

        std::map<std::uint64_t, Fold> window;
        for (int p = s; p >= 0 && p > s - panes; --p) {
          std::map<std::uint64_t, Fold> pane;
          for (const stream::Record& r : slides[static_cast<std::size_t>(p)]) {
            auto [it, fresh] = pane.try_emplace(r.key);
            Fold& f = it->second;
            if (fresh) {
              f.min = f.max = r.value;
              f.oldest = r.event_time;
            } else {
              f.min = std::min(f.min, r.value);
              f.max = std::max(f.max, r.value);
              f.oldest = std::min(f.oldest, r.event_time);
            }
            f.sum += r.value;
            ++f.count;
          }
          for (const auto& [key, f] : pane) {
            auto [it, fresh] = window.try_emplace(key, f);
            if (fresh) continue;
            Fold& w = it->second;
            w.sum += f.sum;
            w.min = std::min(w.min, f.min);
            w.max = std::max(w.max, f.max);
            w.count += f.count;
            w.oldest = std::min(w.oldest, f.oldest);
          }
        }

        stream::RecordBatch out;
        op.on_timer(SimTime::epoch() + slide * (s + 1), out);
        ASSERT_EQ(out.size(), window.size()) << "emission " << s;
        EXPECT_EQ(out.wire_size(), Bytes::of(64 * static_cast<std::int64_t>(out.size())));
        for (std::size_t i = 0; i < out.size(); ++i) {
          const stream::Record r = out.row(i);
          const auto it = window.find(r.key);
          ASSERT_NE(it, window.end()) << "emission " << s << " key " << r.key;
          const Fold& w = it->second;
          const double want = fn == AggregateFn::kSum     ? w.sum
                              : fn == AggregateFn::kCount ? static_cast<double>(w.count)
                              : fn == AggregateFn::kMean  ? w.sum / static_cast<double>(w.count)
                              : fn == AggregateFn::kMin   ? w.min
                                                          : w.max;
          EXPECT_EQ(r.value, want) << "emission " << s << " key " << r.key;
          EXPECT_EQ(r.event_time, w.oldest) << "emission " << s << " key " << r.key;
          EXPECT_EQ(r.wire_size, Bytes::of(64));
          window.erase(it);  // a key emitted twice fails the find above
        }

        // Left behind: the keys of the panes - 1 newest slides, pane by pane.
        std::size_t held = 0;
        for (int p = s; p >= 0 && p > s - panes + 1; --p) {
          std::set<std::uint64_t> keys;
          for (const stream::Record& r : slides[static_cast<std::size_t>(p)]) keys.insert(r.key);
          held += keys.size();
        }
        EXPECT_EQ(op.active_keys(), held) << "after emission " << s;
      }
    }
  }
}

TEST(SlidingWindowTest, RejectsNonDividingSlide) {
  EXPECT_THROW(stream::WindowAggregateOperator("bad", SimDuration::seconds(30),
                                               SimDuration::seconds(7),
                                               stream::AggregateFn::kSum),
               CheckFailure);
}

// ---------------------------------------------------------------------------
// Top-K.
// ---------------------------------------------------------------------------

TEST(TopKTest, EmitsHeaviestKeysInOrder) {
  stream::TopKOperator op("t", SimDuration::seconds(10), 2);
  stream::RecordBatch none;
  stream::RecordBatch b;
  for (int i = 0; i < 5; ++i) b.add(rec(1.0, 100));
  for (int i = 0; i < 3; ++i) b.add(rec(1.0, 200));
  b.add(rec(1.0, 300));
  op.process(0, b, none);
  stream::RecordBatch out;
  op.on_timer(SimTime::epoch() + SimDuration::seconds(10), out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.row(0).key, 100u);
  EXPECT_DOUBLE_EQ(out.row(0).value, 5.0);
  EXPECT_EQ(out.row(1).key, 200u);
  EXPECT_DOUBLE_EQ(out.row(1).value, 3.0);
}

TEST(TopKTest, SumValuesMode) {
  stream::TopKOperator op("t", SimDuration::seconds(10), 1, /*sum_values=*/true);
  stream::RecordBatch none;
  stream::RecordBatch b;
  b.add(rec(10.0, 1));
  b.add(rec(1.0, 2));
  b.add(rec(1.0, 2));
  op.process(0, b, none);
  stream::RecordBatch out;
  op.on_timer(SimTime::epoch() + SimDuration::seconds(10), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.row(0).key, 1u);  // weight 10 beats count 2
}

TEST(TopKTest, WindowStateResets) {
  stream::TopKOperator op("t", SimDuration::seconds(10), 3);
  stream::RecordBatch none;
  stream::RecordBatch b;
  b.add(rec(1.0, 1));
  op.process(0, b, none);
  stream::RecordBatch out1;
  op.on_timer(SimTime::epoch() + SimDuration::seconds(10), out1);
  EXPECT_EQ(out1.size(), 1u);
  stream::RecordBatch out2;
  op.on_timer(SimTime::epoch() + SimDuration::seconds(20), out2);
  EXPECT_TRUE(out2.empty());
}

// ---------------------------------------------------------------------------
// Monitoring history + introspection.
// ---------------------------------------------------------------------------

TEST(HistoryTest, RecordsSamplesInOrderAndBoundsCapacity) {
  StableWorld world;
  monitor::MonitorConfig config;
  config.probe_interval = SimDuration::minutes(1);
  config.history_capacity = 5;
  monitor::MonitoringService service(*world.provider, config);
  service.register_agent(kNEU, world.provider->provision(kNEU, cloud::VmSize::kSmall).id);
  service.register_agent(kNUS, world.provider->provision(kNUS, cloud::VmSize::kSmall).id);
  service.start();
  world.engine.run_until(world.engine.now() + SimDuration::minutes(30));
  const auto history = service.history(kNEU, kNUS);
  ASSERT_EQ(history.size(), 5u);  // capped at capacity
  for (std::size_t i = 1; i < history.size(); ++i) {
    EXPECT_GE(history[i].at, history[i - 1].at);
    EXPECT_GT(history[i].mbps, 0.0);
  }
  EXPECT_TRUE(service.history(kNEU, kWEU).empty());  // unmonitored pair
}

TEST(IntrospectionTest, ReportContainsAllSections) {
  StableWorld world;
  core::SageConfig config;
  config.regions = {kNEU, kNUS};
  config.monitoring.probe_interval = SimDuration::minutes(1);
  core::SageEngine engine(*world.provider, config);
  engine.deploy();
  world.engine.run_until(world.engine.now() + SimDuration::minutes(10));

  bool done = false;
  engine.send(kNEU, kNUS, Bytes::mb(20),
              [&](const stream::SendOutcome&) { done = true; });
  ASSERT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(2)));

  const core::IntrospectionReport report = core::introspect(engine);
  EXPECT_NE(report.link_service_levels.find("NEU->NUS"), std::string::npos);
  EXPECT_NE(report.compute_health.find("North EU"), std::string::npos);
  EXPECT_NE(report.bill.find("WAN egress"), std::string::npos);
  EXPECT_NE(report.decision_audit.find("20.0 MB"), std::string::npos);
  const std::string all = report.render();
  EXPECT_NE(all.find("== Link service levels =="), std::string::npos);
  EXPECT_NE(all.find("== Decision audit =="), std::string::npos);
  EXPECT_NE(all.find("== Runtime =="), std::string::npos);

  // The runtime section reflects the engine's live accounting, and the
  // conservation identity scheduled == fired + cancelled + live holds at
  // any quiescent point.
  const core::SageEngine::RuntimeStats s = engine.runtime_stats();
  EXPECT_EQ(s.now, world.engine.now());
  EXPECT_GT(s.events_fired, 0u);
  EXPECT_EQ(s.events_scheduled, s.events_fired + s.events_cancelled + s.events_live);
  EXPECT_NE(report.runtime.find(std::to_string(s.events_fired)), std::string::npos);
}

TEST(IntrospectionTest, EmptyHistoryRendersGracefully) {
  StableWorld world;
  core::SageConfig config;
  config.regions = {kNEU, kNUS};
  core::SageEngine engine(*world.provider, config);
  engine.deploy();
  const core::IntrospectionReport report = core::introspect(engine);
  EXPECT_NE(report.decision_audit.find("no transfers yet"), std::string::npos);
}

}  // namespace
}  // namespace sage
