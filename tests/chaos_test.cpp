// Functional tests for the deterministic fault-injection subsystem: the
// FaultPlan schedule types, the ChaosController execution paths (plain and
// sharded), every Fabric/Monitoring hook, and the World::run_until outcome
// reasons under faults (healthy-path reasons are asserted elsewhere; here
// the terminating predicate's transfer is aborted or stranded).
#include "chaos/chaos.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "chaos_invariants.hpp"
#include "cloud/fabric.hpp"
#include "cloud/topology.hpp"
#include "monitor/monitoring.hpp"
#include "net/transfer.hpp"
#include "obs/obs.hpp"
#include "simcore/sharded_engine.hpp"
#include "test_util.hpp"

namespace sage {
namespace {

using chaos::ChaosController;
using chaos::ChaosTargets;
using chaos::FaultKind;
using chaos::FaultPlan;
using cloud::Region;
using sage::testing::ChaosInvariants;
using sage::testing::StableWorld;

constexpr Region kNEU = Region::kNorthEU;
constexpr Region kNUS = Region::kNorthUS;
constexpr Region kWEU = Region::kWestEU;

ByteRate nic() { return ByteRate::megabits_per_sec(200); }

SimTime at(double seconds) { return SimTime::epoch() + SimDuration::seconds(seconds); }

// ---------------------------------------------------------------------------
// Plan mechanics.
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, BuildersRecordSortAndDescribe) {
  FaultPlan plan;
  plan.link_up(at(30), kNEU, kNUS)
      .link_down(at(10), kNEU, kNUS, SimDuration::seconds(5), true)
      .poison_estimator(at(20), kNEU, kNUS, 999.0, 2);
  EXPECT_EQ(plan.size(), 3u);
  plan.sort();
  EXPECT_EQ(plan.events[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kPoisonEstimator);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kLinkUp);
  const std::string d = plan.events[0].describe();
  EXPECT_NE(d.find("link_down"), std::string::npos) << d;
  EXPECT_NE(d.find("abort"), std::string::npos) << d;
  EXPECT_NE(d.find("dur="), std::string::npos) << d;
}

TEST(FaultPlanTest, RandomScheduleIsSeedDeterministic) {
  const cloud::Topology topo = cloud::default_topology();
  const FaultPlan a = FaultPlan::random(7, topo, at(0), SimDuration::minutes(10), 40);
  const FaultPlan b = FaultPlan::random(7, topo, at(0), SimDuration::minutes(10), 40);
  const FaultPlan c = FaultPlan::random(8, topo, at(0), SimDuration::minutes(10), 40);
  EXPECT_EQ(a.size(), 40u);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_NE(a.describe(), c.describe());
}

TEST(FaultPlanTest, IncidentStormIsSeedDeterministicAndCorrelated) {
  const cloud::Topology topo = cloud::default_topology();
  const FaultPlan a =
      FaultPlan::incident_storm(3, topo, at(0), SimDuration::days(2), 12.0);
  const FaultPlan b =
      FaultPlan::incident_storm(3, topo, at(0), SimDuration::days(2), 12.0);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_GT(a.size(), 4u);  // ~24 storms expected, several links each
  for (const auto& e : a.events) {
    EXPECT_TRUE(e.kind == FaultKind::kLinkDown ||
                e.kind == FaultKind::kCapacitySqueeze);
    EXPECT_GT(e.duration, SimDuration::zero());
  }
}

// ---------------------------------------------------------------------------
// Fabric hooks through the controller.
// ---------------------------------------------------------------------------

TEST(ChaosFabric, LinkDownStrandsFlowsAndLinkUpResumes) {
  sim::SimEngine engine;
  cloud::Fabric fabric(engine, cloud::stable_topology(), 1);
  const auto src = fabric.add_node(kNEU, nic(), nic());
  const auto dst = fabric.add_node(kNUS, nic(), nic());

  cloud::FlowResult res{};
  bool done = false;
  const auto id = fabric.start_flow(src, dst, Bytes::mb(200), {},
                                    [&](const cloud::FlowResult& r) {
                                      res = r;
                                      done = true;
                                    });

  FaultPlan plan;
  plan.link_down(at(5), kNEU, kNUS);  // strand, don't abort
  plan.link_up(at(60), kNEU, kNUS);
  ChaosController chaos(engine, ChaosTargets{&fabric, nullptr}, std::move(plan),
                        /*enabled=*/true);

  engine.run_until(at(30));
  EXPECT_FALSE(done);  // stranded at rate zero, still alive
  EXPECT_TRUE(fabric.flow_active(id));
  EXPECT_EQ(fabric.flow_rate(id), ByteRate::zero());

  ASSERT_TRUE(sage::testing::run_until(engine, [&] { return done; },
                                       SimDuration::hours(2)));
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.transferred, Bytes::mb(200));
  EXPECT_EQ(chaos.faults_applied(), 2u);
  EXPECT_EQ(chaos.faults_skipped(), 0u);
}

TEST(ChaosFabric, LinkDownWithAbortFailsCrossingFlows) {
  sim::SimEngine engine;
  engine.enable_obs(obs::ObsConfig{});
  cloud::Fabric fabric(engine, cloud::stable_topology(), 1);
  const auto src = fabric.add_node(kNEU, nic(), nic());
  const auto dst = fabric.add_node(kNUS, nic(), nic());

  cloud::FlowResult res{};
  bool done = false;
  fabric.start_flow(src, dst, Bytes::mb(200), {}, [&](const cloud::FlowResult& r) {
    res = r;
    done = true;
  });

  FaultPlan plan;
  plan.link_down(at(5), kNEU, kNUS, SimDuration::zero(), /*abort_flows=*/true);
  ChaosController chaos(engine, ChaosTargets{&fabric, nullptr}, std::move(plan),
                        /*enabled=*/true);

  engine.run_until(at(10));
  ASSERT_TRUE(done);
  EXPECT_EQ(res.outcome, cloud::FlowOutcome::kFailed);
  EXPECT_GT(res.transferred, Bytes::zero());  // made progress before the cut
  EXPECT_LT(res.transferred, Bytes::mb(200));

  ChaosInvariants inv;
  inv.check_fabric(engine, fabric);
  inv.check_engine(engine, /*allowed_live=*/1);  // dormant refresh event at most
  EXPECT_TRUE(inv.ok()) << inv.report();
}

TEST(ChaosFabric, TimedFaultAutoReverts) {
  sim::SimEngine engine;
  cloud::Fabric fabric(engine, cloud::stable_topology(), 1);
  const auto src = fabric.add_node(kNEU, nic(), nic());
  const auto dst = fabric.add_node(kNUS, nic(), nic());

  bool done = false;
  fabric.start_flow(src, dst, Bytes::mb(100), {},
                    [&](const cloud::FlowResult& r) { done = r.ok(); });

  FaultPlan plan;
  plan.link_down(at(5), kNEU, kNUS, /*duration=*/SimDuration::seconds(20));
  ChaosController chaos(engine, ChaosTargets{&fabric, nullptr}, std::move(plan),
                        /*enabled=*/true);

  engine.run_until(at(15));
  EXPECT_EQ(chaos.faults_applied(), 1u);
  EXPECT_EQ(chaos.reverts_applied(), 0u);
  ASSERT_TRUE(sage::testing::run_until(engine, [&] { return done; },
                                       SimDuration::hours(2)));
  EXPECT_EQ(chaos.reverts_applied(), 1u);  // the link came back on its own
}

TEST(ChaosFabric, CapacitySqueezeSlowsCompletion) {
  const auto run_one = [](bool squeeze) {
    sim::SimEngine engine;
    cloud::Fabric fabric(engine, cloud::stable_topology(), 1);
    const auto src = fabric.add_node(kNEU, nic(), nic());
    const auto dst = fabric.add_node(kNUS, nic(), nic());
    SimTime finished;
    bool done = false;
    fabric.start_flow(src, dst, Bytes::mb(50), {}, [&](const cloud::FlowResult& r) {
      EXPECT_TRUE(r.ok());
      finished = r.finished;
      done = true;
    });
    FaultPlan plan;
    if (squeeze) plan.capacity_squeeze(at(1), kNEU, kNUS, 0.02);
    ChaosController chaos(engine, ChaosTargets{&fabric, nullptr}, std::move(plan),
                          /*enabled=*/true);
    EXPECT_TRUE(sage::testing::run_until(engine, [&] { return done; },
                                         SimDuration::hours(6)));
    return finished;
  };
  const SimTime healthy = run_one(false);
  const SimTime squeezed = run_one(true);
  EXPECT_GT(squeezed, healthy + SimDuration::seconds(5));
}

TEST(ChaosFabric, LatencySpikeDelaysNewFlows) {
  const auto run_one = [](bool spike) {
    sim::SimEngine engine;
    cloud::Fabric fabric(engine, cloud::stable_topology(), 1);
    const auto src = fabric.add_node(kNEU, nic(), nic());
    const auto dst = fabric.add_node(kNUS, nic(), nic());
    FaultPlan plan;
    if (spike) plan.latency_spike(at(1), kNEU, kNUS, SimDuration::seconds(2));
    ChaosController chaos(engine, ChaosTargets{&fabric, nullptr}, std::move(plan),
                          /*enabled=*/true);
    engine.run_until(at(5));
    SimTime finished;
    bool done = false;
    fabric.start_flow(src, dst, Bytes::mb(1), {}, [&](const cloud::FlowResult& r) {
      EXPECT_TRUE(r.ok());
      finished = r.finished;
      done = true;
    });
    EXPECT_TRUE(sage::testing::run_until(engine, [&] { return done; },
                                         SimDuration::hours(1)));
    return finished;
  };
  const SimTime healthy = run_one(false);
  const SimTime spiked = run_one(true);
  // The spike adds exactly its extra setup latency to the new flow.
  EXPECT_NEAR((spiked - healthy).to_seconds(), 2.0, 0.1);
}

TEST(ChaosFabric, LossBurstAbortsAtMostCount) {
  sim::SimEngine engine;
  cloud::Fabric fabric(engine, cloud::stable_topology(), 1);
  int failed = 0;
  int completed = 0;
  const int kFlows = 6;
  for (int i = 0; i < kFlows; ++i) {
    const auto src = fabric.add_node(kNEU, nic(), nic());
    const auto dst = fabric.add_node(kNUS, nic(), nic());
    fabric.start_flow(src, dst, Bytes::mb(150), {}, [&](const cloud::FlowResult& r) {
      r.ok() ? ++completed : ++failed;
    });
  }
  FaultPlan plan;
  plan.loss_burst(at(5), kNEU, kNUS, 3);
  ChaosController chaos(engine, ChaosTargets{&fabric, nullptr}, std::move(plan),
                        /*enabled=*/true);
  ASSERT_TRUE(sage::testing::run_until(
      engine, [&] { return failed + completed == kFlows; }, SimDuration::hours(6)));
  EXPECT_EQ(failed, 3);
  EXPECT_EQ(completed, kFlows - 3);
}

TEST(ChaosFabric, RegionOutageFailsNodesAndRecoverRestores) {
  sim::SimEngine engine;
  cloud::Fabric fabric(engine, cloud::stable_topology(), 1);
  const auto src = fabric.add_node(kNEU, nic(), nic());
  const auto dst = fabric.add_node(kNUS, nic(), nic());

  cloud::FlowResult res{};
  bool done = false;
  fabric.start_flow(src, dst, Bytes::mb(200), {}, [&](const cloud::FlowResult& r) {
    res = r;
    done = true;
  });

  FaultPlan plan;
  plan.region_outage(at(5), kNUS, /*duration=*/SimDuration::seconds(20));
  ChaosController chaos(engine, ChaosTargets{&fabric, nullptr}, std::move(plan),
                        /*enabled=*/true);

  engine.run_until(at(10));
  ASSERT_TRUE(done);
  EXPECT_EQ(res.outcome, cloud::FlowOutcome::kFailed);
  EXPECT_TRUE(fabric.node_failed(dst));
  EXPECT_FALSE(fabric.node_failed(src));

  engine.run_until(at(30));  // auto-recovery fired
  EXPECT_FALSE(fabric.node_failed(dst));
  bool ok2 = false;
  fabric.start_flow(src, dst, Bytes::mb(10), {},
                    [&](const cloud::FlowResult& r) { ok2 = r.ok(); });
  ASSERT_TRUE(sage::testing::run_until(engine, [&] { return ok2; },
                                       SimDuration::hours(1)));
}

TEST(ChaosFabric, PartitionCutsCrossingLinksAndHealRestores) {
  sim::SimEngine engine;
  cloud::Fabric fabric(engine, cloud::stable_topology(), 1);
  const auto a = fabric.add_node(kNEU, nic(), nic());
  const auto b = fabric.add_node(kNUS, nic(), nic());
  const auto c = fabric.add_node(kWEU, nic(), nic());

  int completed = 0;
  bool intra_island_done = false;
  // Crosses the island boundary: must strand during the partition.
  fabric.start_flow(a, b, Bytes::mb(150), {},
                    [&](const cloud::FlowResult& r) { completed += r.ok(); });
  // Both endpoints inside the island: unaffected.
  fabric.start_flow(a, c, Bytes::mb(10), {},
                    [&](const cloud::FlowResult& r) { intra_island_done = r.ok(); });

  FaultPlan plan;
  plan.partition(at(5), {kNEU, kWEU}, /*duration=*/SimDuration::seconds(60));
  ChaosController chaos(engine, ChaosTargets{&fabric, nullptr}, std::move(plan),
                        /*enabled=*/true);

  engine.run_until(at(40));
  EXPECT_TRUE(intra_island_done);
  EXPECT_EQ(completed, 0);  // stranded mid-partition
  ASSERT_TRUE(sage::testing::run_until(engine, [&] { return completed == 1; },
                                       SimDuration::hours(2)));
  EXPECT_EQ(chaos.reverts_applied(), 1u);
}

// ---------------------------------------------------------------------------
// Monitoring hook.
// ---------------------------------------------------------------------------

TEST(ChaosMonitoring, PoisonBumpsEpochThroughNormalIngestion) {
  StableWorld world;
  monitor::MonitorConfig config;
  config.probe_interval = SimDuration::minutes(1);
  monitor::MonitoringService monitoring(*world.provider, config);
  for (Region r : {kNEU, kNUS}) {
    monitoring.register_agent(r, world.provider->provision(r, cloud::VmSize::kSmall).id);
  }
  monitoring.start();
  world.engine.run_until(world.engine.now() + SimDuration::minutes(10));

  const std::uint64_t epoch0 = monitoring.sample_epoch();
  const double mean0 = monitoring.estimate(kNEU, kNUS).mean_mbps;
  ASSERT_GT(epoch0, 0u);

  ChaosInvariants inv;
  inv.check_epoch(monitoring);

  FaultPlan plan;
  const SimTime now = world.engine.now();
  plan.poison_estimator(now + SimDuration::seconds(1), kNEU, kNUS, 50000.0, 3);
  plan.poison_estimator(now + SimDuration::seconds(1), kNEU, kWEU, 50000.0, 1);
  ChaosController chaos(world.engine, ChaosTargets{nullptr, &monitoring},
                        std::move(plan), /*enabled=*/true);
  world.engine.run_until(now + SimDuration::seconds(2));

  EXPECT_GE(monitoring.sample_epoch(), epoch0 + 3);
  EXPECT_GT(monitoring.estimate(kNEU, kNUS).mean_mbps, mean0);
  EXPECT_EQ(chaos.faults_applied(), 1u);  // the monitored pair
  EXPECT_EQ(chaos.faults_skipped(), 1u);  // kWEU has no agent
  const auto history = monitoring.history(kNEU, kNUS);
  ASSERT_GE(history.size(), 3u);
  EXPECT_EQ(history.back().mbps, 50000.0);

  inv.check_epoch(monitoring);
  monitoring.stop();
  EXPECT_TRUE(inv.ok()) << inv.report();
}

// ---------------------------------------------------------------------------
// Off-state: a disabled controller perturbs nothing.
// ---------------------------------------------------------------------------

TEST(ChaosController_, DisabledControllerIsByteIdenticalNoOp) {
  const auto run_one = [](bool attach_disabled) {
    sim::SimEngine engine;
    cloud::Fabric fabric(engine, cloud::default_topology(), 42);
    std::vector<SimTime> finishes;
    int done = 0;
    for (int i = 0; i < 8; ++i) {
      const auto src = fabric.add_node(kNEU, nic(), nic());
      const auto dst = fabric.add_node(kNUS, nic(), nic());
      fabric.start_flow(src, dst, Bytes::mb(20 + i * 5), {},
                        [&](const cloud::FlowResult& r) {
                          finishes.push_back(r.finished);
                          ++done;
                        });
    }
    std::unique_ptr<ChaosController> chaos;
    if (attach_disabled) {
      FaultPlan plan;
      plan.link_down(at(1), kNEU, kNUS, SimDuration::zero(), true)
          .region_outage(at(2), kNUS);
      chaos = std::make_unique<ChaosController>(
          engine, ChaosTargets{&fabric, nullptr}, std::move(plan), /*enabled=*/false);
      EXPECT_FALSE(chaos->enabled());
    }
    EXPECT_TRUE(sage::testing::run_until(engine, [&] { return done == 8; },
                                         SimDuration::hours(6)));
    return std::make_pair(finishes, engine.events_fired());
  };
  const auto [f0, fired0] = run_one(false);
  const auto [f1, fired1] = run_one(true);
  EXPECT_EQ(f0, f1);
  EXPECT_EQ(fired0, fired1);
}

// ---------------------------------------------------------------------------
// Sharded execution: the plan applies on every lane at the same sim times.
// ---------------------------------------------------------------------------

TEST(ChaosSharded, PlanAppliesPerLaneAndFlowsResume) {
  const auto topo =
      std::make_shared<const cloud::Topology>(cloud::stable_topology());
  const cloud::ShardPlan splan = cloud::plan_shards(*topo, 2);
  sim::ShardedSimEngine engine(
      sim::ShardedSimEngine::Options{splan.shards, splan.lookahead, true, 0});
  ASSERT_EQ(engine.lane_count(), 2u);

  std::vector<std::unique_ptr<cloud::Fabric>> fabrics;
  std::vector<ChaosTargets> targets;
  for (std::size_t l = 0; l < engine.lane_count(); ++l) {
    fabrics.push_back(std::make_unique<cloud::Fabric>(engine.shard(l), topo, 7 + l));
    targets.push_back(ChaosTargets{fabrics[l].get(), nullptr});
  }

  // One NEU -> NUS flow per lane fabric (each lane simulates its own flows;
  // the fault must strand both at the same sim time).
  struct alignas(64) LaneDone {
    bool ok = false;
  };
  std::vector<LaneDone> done(engine.lane_count());
  for (std::size_t l = 0; l < engine.lane_count(); ++l) {
    cloud::Fabric& f = *fabrics[l];
    const auto src = f.add_node(kNEU, nic(), nic());
    const auto dst = f.add_node(kNUS, nic(), nic());
    f.start_flow(src, dst, Bytes::mb(150), {},
                 [&done, l](const cloud::FlowResult& r) { done[l].ok = r.ok(); });
  }

  FaultPlan plan;
  plan.link_down(at(5), kNEU, kNUS, /*duration=*/SimDuration::seconds(30));
  ChaosController chaos(engine, std::move(targets), std::move(plan),
                        /*enabled=*/true);

  engine.run_until(at(20));
  EXPECT_EQ(chaos.faults_applied(), 2u);  // one per lane
  EXPECT_FALSE(done[0].ok);
  EXPECT_FALSE(done[1].ok);

  engine.run_until(at(3600));
  EXPECT_EQ(chaos.reverts_applied(), 2u);
  EXPECT_TRUE(done[0].ok);
  EXPECT_TRUE(done[1].ok);

  ChaosInvariants inv;
  inv.check_engine(engine, /*allowed_live=*/2);  // at most a dormant refresh per lane
  EXPECT_TRUE(inv.ok()) << inv.report();
}

// ---------------------------------------------------------------------------
// World::run_until outcome reasons under faults (satellite: today only the
// healthy-path reasons are asserted; these pin the fault paths).
// ---------------------------------------------------------------------------

TEST(RunUntilOutcome, PredicateFiresOnHealthyTransfer) {
  bench::World world(1, /*stable=*/true);
  const auto fan = bench::provision_fan(*world.provider, kNEU, kNUS, 1);
  net::TransferResult result{};
  bool done = false;
  net::GeoTransfer transfer(*world.provider, Bytes::mb(8), fan.lanes, {},
                            [&](const net::TransferResult& r) {
                              result = r;
                              done = true;
                            });
  transfer.start();
  const bench::RunOutcome out =
      world.run_until([&] { return done && result.ok; }, SimDuration::hours(2));
  EXPECT_EQ(out.reason, bench::RunStop::kPredicate);
  EXPECT_TRUE(result.ok);
}

TEST(RunUntilOutcome, IdleWhenOutageAbortsTheAwaitedTransfer) {
  bench::World world(1, /*stable=*/true);
  const auto fan = bench::provision_fan(*world.provider, kNEU, kNUS, 1);
  net::TransferResult result{};
  bool done = false;
  net::GeoTransfer transfer(*world.provider, Bytes::mb(256), fan.lanes, {},
                            [&](const net::TransferResult& r) {
                              result = r;
                              done = true;
                            });
  transfer.start();

  FaultPlan plan;
  plan.region_outage(world.engine.now() + SimDuration::seconds(3), kNUS);
  ChaosController chaos(world.engine, ChaosTargets{&world.provider->fabric(), nullptr},
                        std::move(plan), /*enabled=*/true);

  // The outage kills the transfer's only lane: the transfer finishes with
  // ok=false, the predicate can never fire, and the world drains — the
  // outcome must say kIdle, not burn virtual time to the budget.
  const bench::RunOutcome out =
      world.run_until([&] { return done && result.ok; }, SimDuration::hours(2));
  EXPECT_EQ(out.reason, bench::RunStop::kIdle);
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.ok);
  EXPECT_GE(result.stats.hop_failures, 1);  // the retry path actually engaged
}

TEST(RunUntilOutcome, BudgetWhenOutageStrandsTheAwaitedFlow) {
  bench::World world(1, /*stable=*/true);
  const auto a = world.provider->provision(kNEU, cloud::VmSize::kSmall);
  const auto b = world.provider->provision(kNUS, cloud::VmSize::kSmall);
  bool done = false;
  const auto id = world.provider->transfer(a.id, b.id, Bytes::mb(256), {},
                                           [&](const cloud::FlowResult&) { done = true; });

  FaultPlan plan;
  // Down without abort: the flow stays alive at rate zero, the fabric's
  // refresh tick keeps the queue busy, and the budget expires.
  plan.link_down(world.engine.now() + SimDuration::seconds(3), kNEU, kNUS);
  ChaosController chaos(world.engine, ChaosTargets{&world.provider->fabric(), nullptr},
                        std::move(plan), /*enabled=*/true);

  const bench::RunOutcome out =
      world.run_until([&] { return done; }, SimDuration::minutes(2));
  EXPECT_EQ(out.reason, bench::RunStop::kBudget);
  EXPECT_FALSE(done);
  EXPECT_TRUE(world.provider->fabric().flow_active(id));
  EXPECT_EQ(world.provider->fabric().flow_rate(id), ByteRate::zero());
}

TEST(RunUntilOutcome, TransientOutageOnRelayLaneRetriesAndCompletes) {
  bench::World world(1, /*stable=*/true);
  // Direct lane plus a relay through a kWEU helper: the outage kills only
  // the relay lane, so the transfer must retry the lost chunks through the
  // surviving direct lane and still deliver every byte.
  const auto src = world.provider->provision(kNEU, cloud::VmSize::kSmall);
  const auto dst = world.provider->provision(kNUS, cloud::VmSize::kSmall);
  const auto helper = world.provider->provision(kWEU, cloud::VmSize::kSmall);
  std::vector<net::Lane> lanes = net::direct_lane(src.id, dst.id);
  lanes.push_back(net::Lane{{src.id, helper.id, dst.id}});

  net::TransferResult result{};
  bool done = false;
  net::GeoTransfer transfer(*world.provider, Bytes::mb(128), lanes, {},
                            [&](const net::TransferResult& r) {
                              result = r;
                              done = true;
                            });
  transfer.start();

  FaultPlan plan;
  plan.region_outage(world.engine.now() + SimDuration::seconds(3), kWEU);
  ChaosController chaos(world.engine, ChaosTargets{&world.provider->fabric(), nullptr},
                        std::move(plan), /*enabled=*/true);

  const bench::RunOutcome out =
      world.run_until([&] { return done; }, SimDuration::hours(6));
  EXPECT_EQ(out.reason, bench::RunStop::kPredicate);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.size, Bytes::mb(128));
  EXPECT_GE(result.stats.hop_failures, 1);
  EXPECT_EQ(result.stats.chunks_delivered, result.stats.chunks_total);
}

}  // namespace
}  // namespace sage
