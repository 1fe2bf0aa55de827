// Tests for the runtime-parameterized sparse topology layer: builder
// semantics, generator structural invariants, the bit-exact measured-matrix
// import that keeps the calibrated default unchanged, the int32 monitor
// pair-slot space, and a sparse-vs-dense engine differential.
#include "cloud/topology.hpp"

#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "core/sage.hpp"
#include "monitor/monitoring.hpp"
#include "test_util.hpp"

namespace sage::cloud {
namespace {

using sage::testing::run_until;

// BFS connectivity over the declared out-edge adjacency.
bool connected(const Topology& t) {
  const std::size_t n = t.region_count();
  std::vector<char> seen(n, 0);
  std::queue<std::size_t> q;
  q.push(0);
  seen[0] = 1;
  std::size_t visited = 1;
  while (!q.empty()) {
    const Region u = make_region(q.front());
    q.pop();
    for (LinkSlot id : t.out_edges(u)) {
      const std::size_t v = region_index(t.edges()[static_cast<std::size_t>(id)].dst);
      if (!seen[v]) {
        seen[v] = 1;
        ++visited;
        q.push(v);
      }
    }
  }
  return visited == n;
}

double max_wan_per_flow(const Topology& t) {
  double best = 0.0;
  for (const Topology::Edge& e : t.edges()) {
    if (e.src == e.dst) continue;
    best = std::max(best, e.spec.per_flow_cap.bytes_per_second());
  }
  return best;
}

TEST(TopologyBuilderTest, BuildsSparseEdgeSpace) {
  TopologyBuilder b(3);
  const PairLinkSpec spec = wan_spec_for_latency(SimDuration::millis(20), false, true);
  b.add_link(make_region(0), make_region(0), spec);
  b.add_symmetric(make_region(0), make_region(2), spec);
  const Topology t = b.build();
  EXPECT_EQ(t.region_count(), 3u);
  EXPECT_EQ(t.edges().size(), 3u);  // diagonal + two directions
  EXPECT_TRUE(t.has_link(make_region(0), make_region(2)));
  EXPECT_TRUE(t.has_link(make_region(2), make_region(0)));
  EXPECT_FALSE(t.has_link(make_region(0), make_region(1)));
  EXPECT_FALSE(t.has_link(make_region(1), make_region(2)));
  EXPECT_EQ(t.edge_index(make_region(1), make_region(0)), kNoLink);
  // Edge ids are insertion order.
  EXPECT_EQ(t.edge_index(make_region(0), make_region(0)), 0);
  EXPECT_EQ(t.edge_index(make_region(0), make_region(2)), 1);
  EXPECT_EQ(t.edge_index(make_region(2), make_region(0)), 2);
}

TEST(TopologyBuilderTest, HasLinkTracksDeclarations) {
  TopologyBuilder b(2);
  const PairLinkSpec spec = wan_spec_for_latency(SimDuration::millis(20), false, true);
  EXPECT_FALSE(b.has_link(make_region(0), make_region(1)));
  b.add_link(make_region(0), make_region(1), spec);
  EXPECT_TRUE(b.has_link(make_region(0), make_region(1)));
  EXPECT_FALSE(b.has_link(make_region(1), make_region(0)));
}

TEST(RegionNameTest, NamedRegionsKeepHistoricalLabels) {
  EXPECT_EQ(region_name(Region::kNorthEU), "North EU");
  EXPECT_EQ(region_code(Region::kWestUS), "WUS");
}

TEST(RegionNameTest, SyntheticRegionsGetGeneratedLabels) {
  EXPECT_EQ(region_name(make_region(42)), "R042");
  EXPECT_EQ(region_code(make_region(42)), "R042");
  EXPECT_EQ(region_name(make_region(255)), "R255");
  // Interned: repeated queries return the same stable storage.
  EXPECT_EQ(region_name(make_region(77)).data(), region_name(make_region(77)).data());
}

TEST(MeasuredImportTest, RoundTripsCalibratedTableBitExactly) {
  const Topology dense = default_topology();
  const Topology imported = measured_topology(default_latency_ms());
  ASSERT_EQ(dense.region_count(), kRegionCount);
  ASSERT_EQ(imported.edges().size(), dense.edges().size());
  ASSERT_EQ(dense.edges().size(), kRegionCount * kRegionCount);
  for (std::size_t i = 0; i < dense.edges().size(); ++i) {
    const Topology::Edge& a = dense.edges()[i];
    const Topology::Edge& b = imported.edges()[i];
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    // Bit-exact: the import IS the default's constructor.
    EXPECT_EQ(a.spec.capacity.bytes_per_second(), b.spec.capacity.bytes_per_second());
    EXPECT_EQ(a.spec.per_flow_cap.bytes_per_second(),
              b.spec.per_flow_cap.bytes_per_second());
    EXPECT_EQ(a.spec.latency, b.spec.latency);
    EXPECT_EQ(a.spec.variability.noise_sigma, b.spec.variability.noise_sigma);
    EXPECT_EQ(a.spec.variability.diurnal_amplitude,
              b.spec.variability.diurnal_amplitude);
    EXPECT_EQ(a.spec.variability.incidents_per_day,
              b.spec.variability.incidents_per_day);
  }
}

TEST(MeasuredImportTest, DefaultEdgeIdsAreHistoricalRowMajorSlots) {
  const Topology t = default_topology();
  for (std::size_t a = 0; a < kRegionCount; ++a) {
    for (std::size_t b = 0; b < kRegionCount; ++b) {
      EXPECT_EQ(t.edge_index(make_region(a), make_region(b)),
                static_cast<LinkSlot>(a * kRegionCount + b));
    }
  }
}

TEST(GeneratorTest, RingOfContinentsInvariants) {
  for (const std::size_t n : {8u, 64u}) {
    const Topology t = ring_of_continents(n, 4, /*stable=*/true);
    EXPECT_EQ(t.region_count(), n);
    EXPECT_TRUE(connected(t)) << "n=" << n;
    // Sparse: far below the N^2 full mesh once N outgrows the continents.
    if (n >= 64) {
      EXPECT_LT(t.edges().size(), n * n / 2);
    }
    const double wan_ceiling = max_wan_per_flow(t);
    EXPECT_GT(wan_ceiling, 0.0);
    for (const Topology::Edge& e : t.edges()) {
      if (e.src == e.dst) {
        // Intra-DC at least 10x the fastest WAN path, per-flow and aggregate.
        EXPECT_GE(e.spec.per_flow_cap.bytes_per_second(), 10.0 * wan_ceiling);
        EXPECT_GE(e.spec.capacity.bytes_per_second(), 10.0 * wan_ceiling);
      } else {
        // Declared WAN pairs are symmetric with equal RTTs.
        ASSERT_TRUE(t.has_link(e.dst, e.src));
        EXPECT_EQ(t.rtt(e.src, e.dst), t.rtt(e.dst, e.src));
      }
    }
  }
}

TEST(GeneratorTest, HubAndSpokeInvariants) {
  const std::size_t n = 64;
  const Topology t = hub_and_spoke(n, /*stable=*/true);
  EXPECT_EQ(t.region_count(), n);
  EXPECT_TRUE(connected(t));
  // N diagonals + 2(N-1) spoke directions — nothing else.
  EXPECT_EQ(t.edges().size(), n + 2 * (n - 1));
  const double wan_ceiling = max_wan_per_flow(t);
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_TRUE(t.has_link(make_region(0), make_region(i)));
    EXPECT_TRUE(t.has_link(make_region(i), make_region(0)));
    EXPECT_EQ(t.rtt(make_region(0), make_region(i)),
              t.rtt(make_region(i), make_region(0)));
    EXPECT_GE(t.link(make_region(i), make_region(i)).per_flow_cap.bytes_per_second(),
              10.0 * wan_ceiling);
    // Spoke-to-spoke pairs are NOT directly linked: they relay via the hub.
    if (i + 1 < n) {
      EXPECT_FALSE(t.has_link(make_region(i), make_region(i + 1)));
    }
  }
}

// The int16 pair-slot regression: with more than 32767 monitored pairs the
// historical std::int16_t slot table overflowed. A 200-region full mesh has
// 39800 directed WAN pairs; the monitor must index all of them correctly.
TEST(MonitorScaleTest, PairSlotsPastInt16Boundary) {
  const std::size_t n = 200;
  std::vector<std::vector<double>> lat(n, std::vector<double>(n, 50.0));
  for (std::size_t i = 0; i < n; ++i) lat[i][i] = 1.0;

  sim::SimEngine engine;
  cloud::CloudProvider provider(engine, measured_topology(lat, /*stable=*/true), 7);
  monitor::MonitorConfig cfg;
  cfg.history_capacity = 0;
  monitor::MonitoringService svc(provider, cfg);
  for (std::size_t i = 0; i < n; ++i) {
    const Region r = make_region(i);
    svc.register_agent(r, provider.provision(r, VmSize::kSmall).id);
  }
  // Every directed pair is monitored; the last one's links_ index (39799)
  // is far past the int16 range.
  const Region hi_src = make_region(n - 2);
  const Region hi_dst = make_region(n - 1);
  ASSERT_NE(svc.link_estimator(hi_src, hi_dst), nullptr);
  ASSERT_NE(svc.link_estimator(hi_dst, hi_src), nullptr);
  svc.report_transfer_observation(hi_src, hi_dst, ByteRate::mb_per_sec(7.0));
  const monitor::LinkEstimate est = svc.estimate(hi_src, hi_dst);
  ASSERT_TRUE(est.ready());
  EXPECT_NEAR(est.mean_mbps, 7.0, 1e-9);
  // And the sparse snapshot resolves the same high-index pair.
  const monitor::ThroughputMatrix& m = svc.snapshot();
  EXPECT_NEAR(m.at(hi_src, hi_dst).mean_mbps, 7.0, 1e-9);
  EXPECT_FALSE(m.at(make_region(0), make_region(1)).ready());
}

// Sparse-vs-dense differential: the same engine scenario replayed on the
// default calibrated topology and on a TopologyBuilder reconstruction of it
// must be event-for-event identical — completion times, lanes, replans.
TEST(SparseDenseDifferentialTest, EngineScenarioIsIdentical) {
  struct Run {
    std::vector<double> finish_s;
    std::vector<int> lanes;
    std::vector<int> replans;
  };
  const auto scenario = [](Topology topology) {
    sim::SimEngine engine;
    cloud::CloudProvider provider(engine, std::move(topology), 42);
    core::SageConfig config;
    config.regions = {Region::kNorthEU, Region::kWestEU, Region::kNorthUS,
                      Region::kEastUS};
    config.helpers_per_region = 3;
    config.monitoring.probe_interval = SimDuration::minutes(1);
    core::SageEngine sage(provider, config);
    sage.deploy();
    engine.run_until(engine.now() + SimDuration::minutes(20));

    Run run;
    int pending = 0;
    for (const Bytes size : {Bytes::mb(80), Bytes::mb(40), Bytes::mb(120)}) {
      ++pending;
      sage.send(Region::kNorthEU, Region::kNorthUS, size,
                [&](const stream::SendOutcome& o) {
                  EXPECT_TRUE(o.ok);
                  --pending;
                });
    }
    EXPECT_TRUE(run_until(engine, [&] { return pending == 0; }, SimDuration::hours(12)));
    for (const core::SendRecord& rec : sage.history()) {
      run.finish_s.push_back(rec.elapsed.to_seconds());
      run.lanes.push_back(rec.lanes_used);
      run.replans.push_back(rec.replans);
    }
    sage.shutdown();
    return run;
  };

  const Topology dense = default_topology();
  TopologyBuilder rebuild(dense.region_count());
  for (const Topology::Edge& e : dense.edges()) rebuild.add_link(e.src, e.dst, e.spec);

  const Run a = scenario(default_topology());
  const Run b = scenario(rebuild.build());
  ASSERT_EQ(a.finish_s.size(), 3u);
  EXPECT_EQ(a.finish_s, b.finish_s);
  EXPECT_EQ(a.lanes, b.lanes);
  EXPECT_EQ(a.replans, b.replans);
}

}  // namespace
}  // namespace sage::cloud
