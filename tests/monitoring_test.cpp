// Tests for the Monitoring Agent service.
#include "monitor/monitoring.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace sage::monitor {
namespace {

using cloud::Region;
using cloud::VmSize;
using sage::testing::StableWorld;

constexpr Region kNEU = Region::kNorthEU;
constexpr Region kNUS = Region::kNorthUS;
constexpr Region kWEU = Region::kWestEU;

struct MonitoringFixture : public ::testing::Test {
  StableWorld world;
  MonitorConfig config;

  std::unique_ptr<MonitoringService> make(std::vector<Region> regions) {
    auto service = std::make_unique<MonitoringService>(*world.provider, config);
    for (Region r : regions) {
      service->register_agent(r, world.provider->provision(r, VmSize::kSmall).id);
    }
    return service;
  }
};

TEST_F(MonitoringFixture, ProbesProduceLinkEstimates) {
  config.probe_interval = SimDuration::minutes(1);
  auto service = make({kNEU, kNUS});
  service->start();
  world.engine.run_until(world.engine.now() + SimDuration::minutes(20));

  const LinkEstimate est = service->estimate(kNEU, kNUS);
  ASSERT_TRUE(est.ready());
  EXPECT_GT(est.samples, 5u);
  // Stable topology: the estimate must sit at the per-flow TCP cap.
  const double expected =
      world.provider->topology().link(kNEU, kNUS).per_flow_cap.to_mb_per_sec();
  EXPECT_NEAR(est.mean_mbps, expected, expected * 0.15);
}

TEST_F(MonitoringFixture, PairsRequireBothAgents) {
  auto service = make({kNEU});
  service->start();
  world.engine.run_until(world.engine.now() + SimDuration::minutes(30));
  EXPECT_FALSE(service->estimate(kNEU, kNUS).ready());
  EXPECT_EQ(service->probes_sent(), 0u);
}

TEST_F(MonitoringFixture, AgentAddedLaterStartsProbing) {
  config.probe_interval = SimDuration::minutes(1);
  auto service = make({kNEU});
  service->start();
  world.engine.run_until(world.engine.now() + SimDuration::minutes(5));
  service->register_agent(kNUS, world.provider->provision(kNUS, VmSize::kSmall).id);
  world.engine.run_until(world.engine.now() + SimDuration::minutes(15));
  EXPECT_TRUE(service->estimate(kNEU, kNUS).ready());
  EXPECT_TRUE(service->estimate(kNUS, kNEU).ready());
}

TEST_F(MonitoringFixture, SnapshotCoversAllMonitoredPairs) {
  config.probe_interval = SimDuration::minutes(1);
  auto service = make({kNEU, kNUS, kWEU});
  service->start();
  world.engine.run_until(world.engine.now() + SimDuration::minutes(30));
  const ThroughputMatrix m = service->snapshot();
  for (Region a : {kNEU, kNUS, kWEU}) {
    for (Region b : {kNEU, kNUS, kWEU}) {
      if (a == b) continue;
      EXPECT_TRUE(m.at(a, b).ready()) << cloud::region_name(a) << "->"
                                      << cloud::region_name(b);
    }
  }
  EXPECT_EQ(m.taken_at, world.engine.now());
}

TEST_F(MonitoringFixture, TransferObservationsFeedTheMap) {
  auto service = make({kNEU, kNUS});
  // No probing started: estimates can only come from reported observations.
  service->report_transfer_observation(kNEU, kNUS, ByteRate::mb_per_sec(3.0));
  service->report_transfer_observation(kNEU, kNUS, ByteRate::mb_per_sec(5.0));
  const LinkEstimate est = service->estimate(kNEU, kNUS);
  ASSERT_TRUE(est.ready());
  EXPECT_EQ(est.samples, 2u);
  EXPECT_GT(est.mean_mbps, 2.9);
  EXPECT_LT(est.mean_mbps, 5.1);
}

TEST_F(MonitoringFixture, BusyLinkSuspendsProbes) {
  config.probe_interval = SimDuration::seconds(30);
  auto service = make({kNEU, kNUS});
  service->start();
  // Saturate the link with a long foreign transfer.
  const auto a = world.provider->provision(kNEU, VmSize::kSmall);
  const auto b = world.provider->provision(kNUS, VmSize::kSmall);
  bool transfer_done = false;
  world.provider->transfer(a.id, b.id, Bytes::mb(200), {},
                           [&](const cloud::FlowResult&) { transfer_done = true; });
  world.engine.run_until(world.engine.now() + SimDuration::minutes(10));
  EXPECT_GT(service->probes_suspended(), 0u);
}

TEST_F(MonitoringFixture, StopHaltsProbing) {
  config.probe_interval = SimDuration::minutes(1);
  auto service = make({kNEU, kNUS});
  service->start();
  world.engine.run_until(world.engine.now() + SimDuration::minutes(10));
  service->stop();
  const auto sent = service->probes_sent();
  world.engine.run_until(world.engine.now() + SimDuration::minutes(30));
  EXPECT_EQ(service->probes_sent(), sent);
}

TEST_F(MonitoringFixture, CpuEstimateIsNearNominal) {
  auto service = make({kNEU, kNUS});
  service->start();
  world.engine.run_until(world.engine.now() + SimDuration::hours(2));
  const double cpu = service->cpu_estimate(kNEU);
  EXPECT_GT(cpu, 0.6);
  EXPECT_LT(cpu, 1.2);
  // Unmonitored region falls back to nominal.
  EXPECT_DOUBLE_EQ(service->cpu_estimate(Region::kWestUS), 1.0);
}

TEST_F(MonitoringFixture, EstimatorKindIsConfigurable) {
  config.kind = EstimatorKind::kLastSample;
  auto service = make({kNEU, kNUS});
  service->report_transfer_observation(kNEU, kNUS, ByteRate::mb_per_sec(2.0));
  service->report_transfer_observation(kNEU, kNUS, ByteRate::mb_per_sec(8.0));
  EXPECT_DOUBLE_EQ(service->estimate(kNEU, kNUS).mean_mbps, 8.0);
}

TEST_F(MonitoringFixture, SampleEpochBumpsOnEveryAcceptedSample) {
  auto service = make({kNEU, kNUS});
  EXPECT_EQ(service->sample_epoch(), 0u);
  service->report_transfer_observation(kNEU, kNUS, ByteRate::mb_per_sec(4.0));
  EXPECT_EQ(service->sample_epoch(), 1u);
  service->report_transfer_observation(kNUS, kNEU, ByteRate::mb_per_sec(6.0));
  service->report_transfer_observation(kNEU, kNUS, ByteRate::mb_per_sec(5.0));
  EXPECT_EQ(service->sample_epoch(), 3u);
  // The snapshot carries the epoch of the contents it was built from.
  EXPECT_EQ(service->snapshot().epoch, 3u);
}

TEST_F(MonitoringFixture, SnapshotIsServedFromCacheUntilEpochMoves) {
  auto service = make({kNEU, kNUS});
  service->report_transfer_observation(kNEU, kNUS, ByteRate::mb_per_sec(4.0));
  (void)service->snapshot();
  EXPECT_EQ(service->snapshots_rebuilt(), 1u);
  EXPECT_EQ(service->snapshots_cached(), 0u);
  // Same epoch: repeated calls answer from the cache, no rebuild.
  (void)service->snapshot();
  (void)service->snapshot();
  EXPECT_EQ(service->snapshots_rebuilt(), 1u);
  EXPECT_EQ(service->snapshots_cached(), 2u);
  // A new sample dirties the map; the next snapshot rebuilds exactly once.
  service->report_transfer_observation(kNEU, kNUS, ByteRate::mb_per_sec(9.0));
  (void)service->snapshot();
  EXPECT_EQ(service->snapshots_rebuilt(), 2u);
  EXPECT_EQ(service->snapshots_cached(), 2u);
}

TEST_F(MonitoringFixture, CachedSnapshotRefreshesTakenAtAndTracksNow) {
  auto service = make({kNEU, kNUS});
  service->report_transfer_observation(kNEU, kNUS, ByteRate::mb_per_sec(4.0));
  (void)service->snapshot();
  world.engine.run_until(world.engine.now() + SimDuration::minutes(3));
  // Even a cache hit stamps the matrix with the current sim time.
  EXPECT_EQ(service->snapshot().taken_at, world.engine.now());
  EXPECT_EQ(service->snapshots_cached(), 1u);
}

TEST_F(MonitoringFixture, CachedSnapshotsMatchOracleEstimatorsExactly) {
  // Oracle: a fresh estimator per pair, rebuilt at every read from each
  // sample the pair's history recorded. Each snapshot entry must equal its
  // oracle's stats to the last bit, however many rebuilds the cache skipped.
  config.probe_interval = SimDuration::minutes(1);
  auto service = make({kNEU, kNUS, kWEU});
  service->start();
  Rng rng(29);
  const Region regions[] = {kNEU, kNUS, kWEU};
  for (int i = 0; i < 200; ++i) {
    const Region a = regions[rng.uniform_int(0, 2)];
    const Region b = regions[rng.uniform_int(0, 2)];
    if (a != b) {
      service->report_transfer_observation(a, b,
                                           ByteRate::mb_per_sec(rng.uniform(1.0, 20.0)));
    }
    if (i % 7 != 0) continue;
    // Let real probes land between reads, then read twice: the second read
    // is a cache hit and must still match.
    world.engine.run_until(world.engine.now() + SimDuration::seconds(20));
    for (int read = 0; read < 2; ++read) {
      const ThroughputMatrix& m = service->snapshot();
      for (Region x : regions) {
        for (Region y : regions) {
          const std::vector<Sample> seen = service->history(x, y);
          if (seen.empty()) {
            EXPECT_EQ(m.at(x, y).samples, 0u);
            continue;
          }
          // The ring never wrapped, so it holds every accepted sample.
          ASSERT_LT(seen.size(), config.history_capacity);
          const std::unique_ptr<Estimator> oracle =
              make_estimator(config.kind, EstimatorConfig{});
          for (const Sample& sample : seen) oracle->add_sample(sample.at, sample.mbps);
          EXPECT_EQ(m.at(x, y).mean_mbps, oracle->mean());
          EXPECT_EQ(m.at(x, y).stddev_mbps, oracle->stddev());
          EXPECT_EQ(m.at(x, y).samples, oracle->sample_count());
        }
      }
    }
  }
  service->stop();
  // Both cache paths ran: rebuilds after new samples, hits on re-reads.
  EXPECT_GT(service->snapshots_rebuilt(), 0u);
  EXPECT_GT(service->snapshots_cached(), 0u);
  EXPECT_GT(service->probes_sent(), 0u);
}

// -- Shard lanes ---------------------------------------------------------------
// One plain engine running a MonitoringService configured as the lane that
// owns NEU: the lane rules are checked here directly, apart from the
// end-to-end digests of sharded_scenario_test.

struct LaneFixture : public MonitoringFixture {
  struct Seen {
    Region src;
    Region dst;
    SimTime at;
    double mbps;
  };
  static constexpr SimDuration kDelay = SimDuration::seconds(30);
  std::vector<Seen> relayed;

  ShardLane neu_lane() {
    return ShardLane{[](Region r) { return r == kNEU; }, kDelay,
                     [this](Region src, Region dst, double mbps) {
                       relayed.push_back({src, dst, world.engine.now(), mbps});
                     }};
  }

  /// Stop probing and let in-flight probes and delayed ingests land.
  void drain(MonitoringService& service) {
    service.stop();
    world.engine.run_until(world.engine.now() + SimDuration::minutes(5));
  }
};

TEST_F(LaneFixture, ProbesOnlyPairsWhoseSourceItOwns) {
  config.probe_interval = SimDuration::minutes(1);
  config.lane = neu_lane();
  auto service = make({kNEU, kNUS, kWEU});
  service->start();
  world.engine.run_until(world.engine.now() + SimDuration::minutes(20));
  drain(*service);

  ASSERT_FALSE(relayed.empty());
  std::set<std::pair<Region, Region>> pairs;
  for (const Seen& r : relayed) pairs.emplace(r.src, r.dst);
  EXPECT_EQ(pairs, (std::set<std::pair<Region, Region>>{{kNEU, kNUS}, {kNEU, kWEU}}));
  // Every probe sent produced exactly one relayed sample, so no pair with a
  // remote-owned source was probed.
  EXPECT_EQ(service->probes_sent(), relayed.size());
  EXPECT_TRUE(service->estimate(kNEU, kNUS).ready());
  EXPECT_FALSE(service->estimate(kNUS, kNEU).ready());
  EXPECT_FALSE(service->estimate(kWEU, kNUS).ready());
}

TEST_F(LaneFixture, IngestsEachSampleReportDelayAfterItsRelay) {
  config.probe_interval = SimDuration::minutes(1);
  config.lane = neu_lane();
  auto service = make({kNEU, kNUS});
  service->start();

  // Stop on the event that produced the first sample: the relay fired, but
  // nothing is ingested until exactly kDelay later.
  ASSERT_TRUE(sage::testing::run_until(world.engine, [&] { return !relayed.empty(); }));
  const SimTime t0 = relayed.front().at;
  EXPECT_EQ(world.engine.now(), t0);
  EXPECT_EQ(service->sample_epoch(), 0u);
  world.engine.run_until(t0 + kDelay - SimDuration::micros(1));
  EXPECT_EQ(service->sample_epoch(), 0u);
  EXPECT_TRUE(service->history(relayed.front().src, relayed.front().dst).empty());
  world.engine.run_until(t0 + kDelay);
  EXPECT_GE(service->sample_epoch(), 1u);
  const std::vector<Sample> first =
      service->history(relayed.front().src, relayed.front().dst);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first.front().at, t0 + kDelay);

  world.engine.run_until(world.engine.now() + SimDuration::minutes(20));
  drain(*service);
  // Every relayed sample is ingested once, in production order, with its
  // value, exactly kDelay after its relay fired.
  EXPECT_EQ(service->sample_epoch(), relayed.size());
  std::size_t ingested = 0;
  for (Region src : {kNEU, kNUS}) {
    for (Region dst : {kNEU, kNUS}) {
      std::vector<Seen> want;
      for (const Seen& r : relayed) {
        if (r.src == src && r.dst == dst) want.push_back(r);
      }
      const std::vector<Sample> got = service->history(src, dst);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].at, want[i].at + kDelay);
        EXPECT_EQ(got[i].mbps, want[i].mbps);
      }
      ingested += got.size();
    }
  }
  EXPECT_EQ(ingested, relayed.size());
}

TEST_F(LaneFixture, IngestSampleIsImmediateAndNeverRelays) {
  config.lane = neu_lane();
  auto service = make({kNEU, kNUS});
  world.engine.run_until(world.engine.now() + SimDuration::seconds(10));

  // A sample relayed from the lane that owns NUS.
  EXPECT_TRUE(service->ingest_sample(kNUS, kNEU, 123.0));
  EXPECT_EQ(service->sample_epoch(), 1u);
  const std::vector<Sample> seen = service->history(kNUS, kNEU);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen.front().at, world.engine.now());
  EXPECT_EQ(seen.front().mbps, 123.0);
  const LinkEstimate est = service->estimate(kNUS, kNEU);
  EXPECT_EQ(est.samples, 1u);
  EXPECT_NEAR(est.mean_mbps, 123.0, 1e-9);
  EXPECT_TRUE(relayed.empty());

  // Unmonitored pairs: the diagonal, and a region without an agent.
  EXPECT_FALSE(service->ingest_sample(kNEU, kNEU, 50.0));
  EXPECT_FALSE(service->ingest_sample(kNEU, kWEU, 50.0));
  EXPECT_EQ(service->sample_epoch(), 1u);
  EXPECT_EQ(service->history(kNUS, kNEU).size(), 1u);
  EXPECT_TRUE(service->history(kNEU, kNUS).empty());
}

TEST_F(LaneFixture, ConstructorChecksTheLane) {
  const auto build = [&](ShardLane lane) {
    MonitorConfig c;
    c.lane = std::move(lane);
    MonitoringService service(*world.provider, c);
  };
  EXPECT_NO_THROW(build(neu_lane()));

  ShardLane no_relay = neu_lane();
  no_relay.relay = nullptr;
  EXPECT_THROW(build(no_relay), CheckFailure);
  ShardLane no_owner = neu_lane();
  no_owner.owns = nullptr;
  EXPECT_THROW(build(no_owner), CheckFailure);
  for (SimDuration d : {SimDuration::zero(), SimDuration::seconds(-1)}) {
    ShardLane lane = neu_lane();
    lane.report_delay = d;
    EXPECT_THROW(build(lane), CheckFailure);
  }
}

}  // namespace
}  // namespace sage::monitor
