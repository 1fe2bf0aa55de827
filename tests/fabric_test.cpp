// Tests for the fluid-flow WAN fabric (max-min sharing, per-flow TCP caps,
// NIC limits, failures, egress accounting) on the *stable* topology, where
// rates are analytic.
#include "cloud/fabric.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cloud/topology.hpp"
#include "common/check.hpp"
#include "common/stats.hpp"
#include "test_util.hpp"

namespace sage::cloud {
namespace {

using sage::testing::run_until;

constexpr Region kNEU = Region::kNorthEU;
constexpr Region kWEU = Region::kWestEU;
constexpr Region kNUS = Region::kNorthUS;

const ByteRate kSmallNic = ByteRate::megabits_per_sec(100);  // 12.5 MB/s

struct FabricFixture : public ::testing::Test {
  sim::SimEngine engine;
  Topology topo = stable_topology();
  Fabric fabric{engine, topo, /*seed=*/7};

  NodeId vm(Region r) { return fabric.add_node(r, kSmallNic, kSmallNic); }

  /// Start a flow and run to completion; returns the result.
  FlowResult run_flow(NodeId src, NodeId dst, Bytes size, FlowOptions options = {}) {
    FlowResult out{};
    bool done = false;
    fabric.start_flow(src, dst, size, options, [&](const FlowResult& r) {
      out = r;
      done = true;
    });
    EXPECT_TRUE(run_until(engine, [&] { return done; }, SimDuration::hours(12)));
    return out;
  }
};

TEST_F(FabricFixture, SingleWanFlowHitsPerFlowCap) {
  const ByteRate cap = topo.link(kNEU, kNUS).per_flow_cap;
  const Bytes size = cap * SimDuration::seconds(20);  // ~20 s of payload
  const FlowResult r = run_flow(vm(kNEU), vm(kNUS), size);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.transferred, size);
  const double expected_s = 20.0 + topo.link(kNEU, kNUS).latency.to_seconds();
  EXPECT_NEAR(r.elapsed().to_seconds(), expected_s, 0.5);
}

TEST_F(FabricFixture, IntraRegionFlowIsNicBound) {
  const Bytes size = kSmallNic * SimDuration::seconds(10);
  const FlowResult r = run_flow(vm(kNEU), vm(kNEU), size);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.elapsed().to_seconds(), 10.0, 0.2);
}

TEST_F(FabricFixture, IntraFlowIsMuchFasterThanTransatlantic) {
  const Bytes size = Bytes::mb(50);
  const FlowResult intra = run_flow(vm(kNEU), vm(kNEU), size);
  const FlowResult wan = run_flow(vm(kNEU), vm(kNUS), size);
  ASSERT_TRUE(intra.ok());
  ASSERT_TRUE(wan.ok());
  EXPECT_GT(wan.elapsed() / intra.elapsed(), 3.0);
}

TEST_F(FabricFixture, NicSharedAcrossConcurrentFlows) {
  // Six concurrent flows out of one VM exceed its NIC: each should get
  // NIC/6, not the WAN per-flow cap.
  const NodeId src = vm(kNEU);
  const Bytes size = Bytes::mb(10);
  int done = 0;
  std::vector<FlowResult> results(6);
  for (int i = 0; i < 6; ++i) {
    fabric.start_flow(src, vm(kNUS), size, {}, [&, i](const FlowResult& r) {
      results[static_cast<std::size_t>(i)] = r;
      ++done;
    });
  }
  ASSERT_TRUE(run_until(engine, [&] { return done == 6; }, SimDuration::hours(1)));
  const double share = kSmallNic.to_mb_per_sec() / 6.0;  // ~2.08 MB/s
  for (const FlowResult& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(r.achieved_rate().to_mb_per_sec(), share, 0.15);
  }
}

TEST_F(FabricFixture, WanAggregateCapacitySaturates) {
  // Twelve distinct VM pairs exceed the pair link's aggregate capacity
  // (8x the per-flow cap): each flow gets capacity/12.
  const ByteRate cap = topo.link(kNEU, kNUS).per_flow_cap;
  const ByteRate aggregate = topo.link(kNEU, kNUS).capacity;
  const Bytes size = Bytes::mb(10);
  int done = 0;
  std::vector<FlowResult> results(12);
  for (int i = 0; i < 12; ++i) {
    fabric.start_flow(vm(kNEU), vm(kNUS), size, {}, [&, i](const FlowResult& r) {
      results[static_cast<std::size_t>(i)] = r;
      ++done;
    });
  }
  ASSERT_TRUE(run_until(engine, [&] { return done == 12; }, SimDuration::hours(1)));
  const double share = aggregate.to_mb_per_sec() / 12.0;
  ASSERT_LT(share, cap.to_mb_per_sec());  // sanity: link is the bottleneck
  for (const FlowResult& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(r.achieved_rate().to_mb_per_sec(), share, 0.2);
  }
}

TEST_F(FabricFixture, TwoFlowsBelowCapacityEachGetFullCap) {
  const ByteRate cap = topo.link(kNEU, kNUS).per_flow_cap;
  const Bytes size = cap * SimDuration::seconds(15);
  int done = 0;
  std::vector<FlowResult> results(2);
  for (int i = 0; i < 2; ++i) {
    fabric.start_flow(vm(kNEU), vm(kNUS), size, {}, [&, i](const FlowResult& r) {
      results[static_cast<std::size_t>(i)] = r;
      ++done;
    });
  }
  ASSERT_TRUE(run_until(engine, [&] { return done == 2; }, SimDuration::hours(1)));
  for (const FlowResult& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(r.elapsed().to_seconds(), 15.0, 0.5);
  }
}

TEST_F(FabricFixture, DemandCapBindsFlow) {
  FlowOptions options;
  options.demand_cap = ByteRate::mb_per_sec(1.0);
  const FlowResult r = run_flow(vm(kNEU), vm(kNUS), Bytes::mb(10), options);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.elapsed().to_seconds(), 10.0, 0.3);
}

TEST_F(FabricFixture, DemandLimitedFlowLeavesCapacityToOthers) {
  // One throttled + one free flow out of the same NIC: the free flow keeps
  // the WAN per-flow cap because the throttled one does not contend.
  const NodeId src = vm(kNEU);
  const ByteRate cap = topo.link(kNEU, kNUS).per_flow_cap;
  FlowOptions slow;
  slow.demand_cap = ByteRate::mb_per_sec(0.5);
  bool slow_done = false;
  fabric.start_flow(src, vm(kNUS), Bytes::mb(5), slow,
                    [&](const FlowResult&) { slow_done = true; });
  FlowResult fast{};
  bool fast_done = false;
  fabric.start_flow(src, vm(kNUS), cap * SimDuration::seconds(10), {},
                    [&](const FlowResult& r) {
                      fast = r;
                      fast_done = true;
                    });
  ASSERT_TRUE(run_until(engine, [&] { return fast_done && slow_done; },
                        SimDuration::hours(1)));
  EXPECT_NEAR(fast.elapsed().to_seconds(), 10.0, 0.5);
}

TEST_F(FabricFixture, ExtraSetupLatencyDelaysCompletion) {
  FlowOptions options;
  options.extra_setup_latency = SimDuration::seconds(2);
  const ByteRate cap = topo.link(kNEU, kNUS).per_flow_cap;
  const FlowResult r = run_flow(vm(kNEU), vm(kNUS), cap * SimDuration::seconds(5), options);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.elapsed().to_seconds(), 7.0, 0.3);
}

TEST_F(FabricFixture, CancelMidFlight) {
  const NodeId a = vm(kNEU);
  const NodeId b = vm(kNUS);
  FlowResult result{};
  bool done = false;
  const FlowId id = fabric.start_flow(a, b, Bytes::mb(100), {}, [&](const FlowResult& r) {
    result = r;
    done = true;
  });
  engine.run_until(engine.now() + SimDuration::seconds(10));
  EXPECT_TRUE(fabric.flow_active(id));
  EXPECT_GT(fabric.flow_transferred(id), Bytes::zero());
  fabric.cancel_flow(id);
  EXPECT_TRUE(done);
  EXPECT_EQ(result.outcome, FlowOutcome::kCancelled);
  EXPECT_GT(result.transferred, Bytes::zero());
  EXPECT_LT(result.transferred, Bytes::mb(100));
  EXPECT_FALSE(fabric.flow_active(id));
}

TEST_F(FabricFixture, NodeFailureAbortsItsFlows) {
  const NodeId a = vm(kNEU);
  const NodeId b = vm(kNUS);
  FlowResult result{};
  bool done = false;
  fabric.start_flow(a, b, Bytes::mb(100), {}, [&](const FlowResult& r) {
    result = r;
    done = true;
  });
  engine.run_until(engine.now() + SimDuration::seconds(5));
  fabric.set_node_failed(b, true);
  EXPECT_TRUE(done);
  EXPECT_EQ(result.outcome, FlowOutcome::kFailed);
  EXPECT_TRUE(fabric.node_failed(b));
}

TEST_F(FabricFixture, FlowToFailedNodeFailsAsync) {
  const NodeId a = vm(kNEU);
  const NodeId b = vm(kNUS);
  fabric.set_node_failed(b, true);
  FlowResult result{};
  bool done = false;
  fabric.start_flow(a, b, Bytes::mb(1), {}, [&](const FlowResult& r) {
    result = r;
    done = true;
  });
  EXPECT_FALSE(done);  // asynchronous, never re-entrant
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(result.outcome, FlowOutcome::kFailed);
  EXPECT_TRUE(result.transferred.is_zero());
}

TEST_F(FabricFixture, RecoveredNodeAcceptsFlows) {
  const NodeId a = vm(kNEU);
  const NodeId b = vm(kNUS);
  fabric.set_node_failed(b, true);
  fabric.set_node_failed(b, false);
  const FlowResult r = run_flow(a, b, Bytes::mb(1));
  EXPECT_TRUE(r.ok());
}

TEST_F(FabricFixture, EgressCountsOnlyCrossRegionBytes) {
  const Bytes wan_bytes = Bytes::mb(8);
  (void)run_flow(vm(kNEU), vm(kNUS), wan_bytes);
  (void)run_flow(vm(kNEU), vm(kNEU), Bytes::mb(32));  // intra: free
  EXPECT_NEAR(fabric.egress_from(kNEU).to_mb(), wan_bytes.to_mb(), 0.01);
  EXPECT_TRUE(fabric.egress_from(kNUS).is_zero());
}

TEST_F(FabricFixture, PairFlowCountTracksLiveFlows) {
  EXPECT_EQ(fabric.pair_flow_count(kNEU, kNUS), 0u);
  bool done = false;
  fabric.start_flow(vm(kNEU), vm(kNUS), Bytes::mb(50), {},
                    [&](const FlowResult&) { done = true; });
  engine.run_until(engine.now() + SimDuration::seconds(2));
  EXPECT_EQ(fabric.pair_flow_count(kNEU, kNUS), 1u);
  EXPECT_EQ(fabric.pair_flow_count(kNEU, kWEU), 0u);
  ASSERT_TRUE(run_until(engine, [&] { return done; }, SimDuration::hours(1)));
  EXPECT_EQ(fabric.pair_flow_count(kNEU, kNUS), 0u);
}

TEST_F(FabricFixture, PairFlowCountIncludesSetupPhase) {
  // Flows count against their pair link from start_flow on, before the
  // setup-latency event activates them (the monitoring layer must see a
  // just-launched transfer when deciding whether to probe).
  fabric.start_flow(vm(kNEU), vm(kNUS), Bytes::mb(50), {}, [](const FlowResult&) {});
  fabric.start_flow(vm(kNEU), vm(kNUS), Bytes::mb(50), {}, [](const FlowResult&) {});
  const FlowId weu = fabric.start_flow(vm(kNEU), vm(kWEU), Bytes::mb(50), {},
                                       [](const FlowResult&) {});
  EXPECT_EQ(fabric.pair_flow_count(kNEU, kNUS), 2u);
  EXPECT_EQ(fabric.pair_flow_count(kNEU, kWEU), 1u);
  EXPECT_EQ(fabric.pair_flow_count(kWEU, kNEU), 0u);  // counts are directed
  fabric.cancel_flow(weu);  // cancelled during setup: count drops immediately
  EXPECT_EQ(fabric.pair_flow_count(kNEU, kWEU), 0u);
}

TEST_F(FabricFixture, StableRefreshDoesNotChurnEventQueue) {
  // On a drift-free topology every refresh re-settles to the same rates.
  // The flows share the pair link, so they are one component with one
  // completion event, and a settle leaves that event where it is when the
  // earliest finish time did not move. Byte progress truncates at each tick,
  // which can push the rounded-up finish time a microsecond later and
  // legitimately move the event, so assert strong suppression, not zero.
  constexpr int kFlows = 8;
  for (int i = 0; i < kFlows; ++i) {
    fabric.start_flow(vm(kNEU), vm(kNUS), Bytes::gb(50), {}, [](const FlowResult&) {});
  }
  engine.run_until(engine.now() + SimDuration::seconds(5));  // activate + settle
  const std::uint64_t cancelled = engine.events_cancelled();
  constexpr int kTicks = 240;  // 120 s at the default 500 ms refresh
  engine.run_until(engine.now() + SimDuration::seconds(120));
  const std::uint64_t churn = engine.events_cancelled() - cancelled;
  // Every move of a completion event counts as one cancel. Moving every
  // flow's finish each tick would cost kFlows * kTicks. Demand at least
  // 80% suppression.
  EXPECT_LE(churn, static_cast<std::uint64_t>(kFlows) * kTicks / 5);
}

// -- Completion events --------------------------------------------------------
//
// A settle gives each flow a finish time rounded up to the next microsecond,
// and only each component's earliest flow holds a completion event. The
// engine runs nothing but this fabric here, so its live events are the
// completion events, the pending refresh tick and any setup events.

TEST_F(FabricFixture, EqualFlowsFinishInOneEventInFlowIdOrder) {
  // Five equal flows on one NIC pair share it at NIC/5 and finish at the
  // same instant: 1,000,003 B at 2.5 MB/s is 400,001.2 us, rounded up.
  constexpr int kFlows = 5;
  const NodeId src = vm(kNEU);
  const NodeId dst = vm(kNEU);
  const std::size_t before = engine.live_events();
  struct Done { FlowId id; std::int64_t at_us; std::uint64_t fired; };
  std::vector<Done> done;
  std::vector<FlowId> ids;
  for (int i = 0; i < kFlows; ++i) {
    ids.push_back(fabric.start_flow(src, dst, Bytes::of(1'000'003), {}, [&](const FlowResult& r) {
      EXPECT_TRUE(r.ok());
      done.push_back({r.id, engine.now().count_micros(), engine.events_fired()});
    }));
  }
  const SimTime active = SimTime::epoch() + topo.link(kNEU, kNEU).latency;
  engine.run_until(active);
  ASSERT_EQ(fabric.flow_rate(ids[0]).bytes_per_second(), kSmallNic.bytes_per_second() / kFlows);
  // The refresh tick and one completion event for all five flows.
  EXPECT_EQ(engine.live_events() - before, 2u);
  engine.run_until(active + SimDuration::millis(450));  // before the next refresh tick
  ASSERT_EQ(done.size(), static_cast<std::size_t>(kFlows));
  for (std::size_t i = 0; i < done.size(); ++i) {
    EXPECT_EQ(done[i].id, ids[i]);  // callbacks in flow-id order
    EXPECT_EQ(done[i].at_us, (active + SimDuration::micros(400'002)).count_micros());
    EXPECT_EQ(done[i].fired, done[0].fired) << "flow " << done[i].id;  // one event
  }
}

TEST_F(FabricFixture, BridgeFlowJoinsAndSplitsCompletionEvents) {
  // Two groups of three flows on their own NICs, one inside NEU and one
  // inside WEU, then a bridge flow from group 0's source to group 1's sink.
  // While the bridge is active the seven flows are one component with one
  // completion event; after it finishes each half has its own.
  const NodeId src0 = vm(kNEU);
  const NodeId dst0 = vm(kNEU);
  const NodeId src1 = vm(kWEU);
  const NodeId dst1 = vm(kWEU);
  for (int i = 0; i < 3; ++i) {
    fabric.start_flow(src0, dst0, Bytes::gb(1), {}, [](const FlowResult&) {});
    fabric.start_flow(src1, dst1, Bytes::gb(1), {}, [](const FlowResult&) {});
  }
  std::size_t after_bridge = 0;
  bool bridged = false;
  fabric.start_flow(src0, dst1, Bytes::kb(100), {}, [&](const FlowResult& r) {
    EXPECT_TRUE(r.ok());
    bridged = true;
    // Runs after the completion event's re-settle, at the same instant.
    engine.schedule_after(SimDuration::zero(), [&] { after_bridge = engine.live_events(); });
  });
  const SimDuration bridge_setup = topo.link(kNEU, kWEU).latency;
  ASSERT_GT(bridge_setup, topo.link(kNEU, kNEU).latency);
  engine.run_until(SimTime::epoch() + bridge_setup - SimDuration::micros(1));
  // The refresh tick, the bridge's setup event and one event per group.
  EXPECT_EQ(engine.live_events(), 4u);
  engine.run_until(SimTime::epoch() + bridge_setup + SimDuration::micros(1));
  ASSERT_FALSE(bridged);
  EXPECT_EQ(engine.live_events(), 2u);  // the refresh tick and the joined component's event
  ASSERT_TRUE(run_until(engine, [&] { return after_bridge != 0; }, SimDuration::millis(400)));
  EXPECT_EQ(after_bridge, 3u);  // the refresh tick and one event per half
}

TEST_F(FabricFixture, LoneFlowFiresOneCompletionEvent) {
  // 1,000,003 B at the full 12.5 MB/s NIC is 80,000.24 us. The finish time
  // rounds up, so the one event finds every byte moved; rounded down, it
  // would leave 3 B for a second event a microsecond later.
  const Bytes size = Bytes::of(1'000'003);
  bool done = false;
  FlowResult result{};
  fabric.start_flow(vm(kNEU), vm(kNEU), size, {}, [&](const FlowResult& r) {
    result = r;
    done = true;
  });
  std::uint64_t fired = 0;
  while (!done && engine.step()) ++fired;
  ASSERT_TRUE(done);
  EXPECT_EQ(fired, 2u);  // the activation and the completion
  EXPECT_EQ(result.transferred, size);
  EXPECT_EQ(result.elapsed(), topo.link(kNEU, kNEU).latency + SimDuration::micros(80'001));
}

TEST(FabricDeterminismTest, IdenticalSeedsProduceIdenticalFinishTimes) {
  // Two runs with the same seed on the *noisy* topology must agree on every
  // completion to the microsecond; settlement order must not depend on hash
  // layout or platform.
  const auto run_once = [] {
    sim::SimEngine engine;
    Fabric fabric(engine, default_topology(), /*seed=*/42);
    std::vector<NodeId> nodes;
    for (Region r : kAllRegions) {
      for (int i = 0; i < 2; ++i) {
        nodes.push_back(fabric.add_node(r, ByteRate::megabits_per_sec(400),
                                        ByteRate::megabits_per_sec(400)));
      }
    }
    std::vector<std::pair<FlowId, std::int64_t>> finishes;
    for (int i = 0; i < 40; ++i) {
      const NodeId src = nodes[static_cast<std::size_t>(i) % nodes.size()];
      const NodeId dst = nodes[static_cast<std::size_t>(i * 5 + 3) % nodes.size()];
      if (fabric.node_region(src) == fabric.node_region(dst)) continue;
      engine.schedule_after(SimDuration::seconds(i), [&fabric, &engine, &finishes, src,
                                                      dst, i] {
        fabric.start_flow(src, dst, Bytes::mb(20 * (i % 7 + 1)), {},
                          [&finishes, &engine](const FlowResult& r) {
                            finishes.emplace_back(r.id, engine.now().count_micros());
                          });
      });
    }
    engine.run();
    return finishes;
  };
  EXPECT_EQ(run_once(), run_once());
}

// -- Partition invariance ---------------------------------------------------
//
// A flow's history must be a function of its own link-connected component:
// not of unrelated traffic in the same fabric, nor of the order in which
// its component's flows were started, activated or cancelled.

// Group 0 sends NEU -> NUS, starts at t = 0 and takes a capacity squeeze;
// group 1 sends WEU -> EUS, starts off the refresh grid at t = 0.3 s and
// loses a flow to cancel_flow. Each group has its own two nodes, so the
// groups never share a link. Records, per (group, flow), the finish time
// and flow_transferred() at three checkpoints.
std::map<std::pair<int, int>, std::vector<std::int64_t>> run_flow_groups(
    const std::vector<int>& groups) {
  sim::SimEngine engine;
  Fabric fabric(engine, stable_topology(), /*seed=*/7);
  std::map<std::pair<int, int>, std::vector<std::int64_t>> out;
  std::map<std::pair<int, int>, FlowId> ids;
  for (int g : groups) {
    const Region src = g == 0 ? kNEU : kWEU;
    const Region dst = g == 0 ? kNUS : Region::kEastUS;
    const NodeId a = fabric.add_node(src, kSmallNic, kSmallNic);
    const NodeId b = fabric.add_node(dst, kSmallNic, kSmallNic);
    const SimTime start = SimTime::from_micros(g == 0 ? 0 : 300'000);
    for (int i = 0; i < 3; ++i) {
      engine.schedule_at(start, [&, g, i, a, b] {
        const Bytes size = Bytes::mb(8 + 13 * i + 5 * g);
        ids[{g, i}] = fabric.start_flow(a, b, size, {}, [&, g, i](const FlowResult& r) {
          out[{g, i}].push_back(engine.now().count_micros());
          out[{g, i}].push_back(static_cast<std::int64_t>(r.outcome));
        });
      });
    }
    if (g == 0) {
      engine.schedule_at(SimTime::from_micros(3'700'000),
                         [&] { fabric.set_link_chaos_scale(kNEU, kNUS, 0.05, false); });
    } else {
      engine.schedule_at(SimTime::from_micros(4'100'000),
                         [&] { fabric.cancel_flow(ids[{1, 2}]); });
    }
  }
  for (std::int64_t at : {2'210'000, 4'420'000, 6'630'000}) {
    engine.schedule_at(SimTime::from_micros(at), [&, groups] {
      for (int g : groups) {
        for (int i = 0; i < 3; ++i) {
          out[{g, i}].push_back(fabric.flow_transferred(ids[{g, i}]).count());
        }
      }
    });
  }
  engine.run();
  return out;
}

TEST(FabricPartitionTest, DisjointGroupsMatchTheirSoloRuns) {
  const auto together = run_flow_groups({0, 1});
  auto apart = run_flow_groups({0});
  apart.merge(run_flow_groups({1}));
  ASSERT_EQ(together.size(), 6u);
  for (const auto& [flow, history] : together) {
    SCOPED_TRACE("group " + std::to_string(flow.first) + " flow " +
                 std::to_string(flow.second));
    ASSERT_EQ(history.size(), 5u);  // three checkpoints + finish + outcome
    EXPECT_EQ(history, apart.at(flow));
  }
}

TEST(FabricPartitionTest, SettledRatesIgnoreStartAndCancelHistory) {
  // Six flows share one source NIC. Five are capped below the fair share,
  // so they settle first, and the order of their subtractions from the
  // NIC's capacity decides, to the last bit, what the uncapped flow gets.
  // The second history activates them in reverse (setup latencies), then
  // starts and cancels decoys on the same links, so every activation-
  // ordered list holds them backwards; flow ids keep the same order.
  const std::vector<double> caps = {1'234'567.891, 1'987'654.321, 1'414'213.562,
                                    1'732'050.808, 1'618'033.989, 0.0};
  const auto settle = [&](bool shuffled) {
    sim::SimEngine engine;
    Fabric fabric(engine, stable_topology(), /*seed=*/7);
    const NodeId src = fabric.add_node(kNEU, kSmallNic, kSmallNic);
    const NodeId dst = fabric.add_node(kNEU, kSmallNic, kSmallNic);
    std::vector<FlowId> flows;
    for (std::size_t i = 0; i < caps.size(); ++i) {
      FlowOptions options;
      if (caps[i] > 0.0) options.demand_cap = ByteRate::bytes_per_sec(caps[i]);
      if (shuffled) {
        options.extra_setup_latency =
            SimDuration::millis(static_cast<std::int64_t>(10 * (caps.size() - i)));
      }
      flows.push_back(fabric.start_flow(src, dst, Bytes::gb(1), options,
                                        [](const FlowResult&) {}));
    }
    engine.run_until(engine.now() + SimDuration::millis(100));
    std::vector<FlowId> decoys;
    for (int k = 0; k < 3 && shuffled; ++k) {
      decoys.push_back(fabric.start_flow(src, dst, Bytes::gb(1), {}, [](const FlowResult&) {}));
    }
    engine.run_until(engine.now() + SimDuration::millis(100));
    for (FlowId d : decoys) fabric.cancel_flow(d);
    engine.run_until(engine.now() + SimDuration::millis(300));
    std::vector<double> rates;
    for (FlowId f : flows) rates.push_back(fabric.flow_rate(f).bytes_per_second());
    return rates;
  };
  const std::vector<double> plain = settle(false);
  const std::vector<double> shuffled = settle(true);
  ASSERT_EQ(plain.size(), caps.size());
  for (std::size_t i = 0; i < caps.size(); ++i) {
    EXPECT_EQ(plain[i], shuffled[i]) << "flow " << i;  // bit-identical
  }
}

// Two groups of flows on their own NICs, plus a bridge flow from group 0's
// source to group 1's sink that joins them into one component until it
// completes. Group 0 (inside NEU) is five capped flows and an uncapped one
// on one source NIC, as in SettledRatesIgnoreStartAndCancelHistory; group 1
// (inside WEU) is eight uncapped flows whose fair share, 1.5625 MB/s, falls
// between group 0's caps. Filled as one component, the caps below that
// share would settle in an earlier round than the rest, and the changed
// order of subtractions from the NIC moves the uncapped flow's rate in the
// last bit. Returns every group flow's rate right after the bridge's
// completion re-settled the fabric (before the next refresh tick), or at
// 100 ms without a bridge, and the bridge's finish time (0 without one).
std::pair<std::map<std::pair<int, int>, double>, std::int64_t> rates_after_bridge(
    const std::vector<int>& groups, bool bridge) {
  const std::vector<double> caps = {1'234'567.891, 1'987'654.321, 1'414'213.562,
                                    1'732'050.808, 1'618'033.989, 0.0};
  sim::SimEngine engine;
  Fabric fabric(engine, stable_topology(), /*seed=*/7);
  std::map<std::pair<int, int>, FlowId> ids;
  std::map<std::pair<int, int>, double> rates;
  std::vector<NodeId> src(2), dst(2);
  for (int g : groups) {
    const Region r = g == 0 ? kNEU : kWEU;
    src[static_cast<std::size_t>(g)] = fabric.add_node(r, kSmallNic, kSmallNic);
    dst[static_cast<std::size_t>(g)] = fabric.add_node(r, kSmallNic, kSmallNic);
    const std::size_t n = g == 0 ? caps.size() : 8;
    for (std::size_t i = 0; i < n; ++i) {
      FlowOptions options;
      if (g == 0 && caps[i] > 0.0) options.demand_cap = ByteRate::bytes_per_sec(caps[i]);
      ids[{g, static_cast<int>(i)}] =
          fabric.start_flow(src[static_cast<std::size_t>(g)], dst[static_cast<std::size_t>(g)],
                            Bytes::gb(1), options, [](const FlowResult&) {});
    }
  }
  const auto record = [&] {
    for (const auto& [key, id] : ids) rates[key] = fabric.flow_rate(id).bytes_per_second();
  };
  std::int64_t bridge_done = 0;
  if (bridge) {
    fabric.start_flow(src[0], dst[1], Bytes::kb(100), {}, [&](const FlowResult& r) {
      EXPECT_TRUE(r.ok());
      bridge_done = engine.now().count_micros();
      // Runs after the completion event's re-settle, at the same instant.
      engine.schedule_after(SimDuration::zero(), record);
    });
  } else {
    engine.schedule_at(SimTime::from_micros(100'000), record);
  }
  engine.run_until(SimTime::from_micros(450'000));
  return {rates, bridge_done};
}

TEST(FabricPartitionTest, BridgeCompletionLeavesHalvesSettlingAsSoloRuns) {
  // The bridge's up and down NICs each carry flows that do not share its
  // pair link, so its completion fails the connectivity shortcut and the
  // survivors are labelled into their two components.
  const auto [together, bridge_done] = rates_after_bridge({0, 1}, true);
  ASSERT_GT(bridge_done, 0);
  ASSERT_LT(bridge_done, 450'000);  // before the first refresh tick re-settles
  auto apart = rates_after_bridge({0}, false).first;
  apart.merge(rates_after_bridge({1}, false).first);
  ASSERT_EQ(together.size(), 14u);
  ASSERT_EQ(apart.size(), 14u);
  for (const auto& [flow, rate] : together) {
    EXPECT_EQ(rate, apart.at(flow))  // bit-identical
        << "group " << flow.first << " flow " << flow.second;
  }
}

TEST(FabricPartitionTest, CancelInCompletionCallbackCountsPendingHintFlow) {
  // Eight flows share one NIC pair at NIC/8 = 1.5625 MB/s. Flow A (900 B)
  // needs 576 us and flow H (899 B) 575.36 us, which rounds up to 576, so
  // both finish in one completion event 576 us after activation, A first in
  // flow-id order. A's callback cancels a sibling while H is queued to
  // finish but still live: the nested re-settle must count H on the NIC,
  // giving the six live flows NIC/6 each, not NIC/5 to the other five
  // beside H's old NIC/8.
  sim::SimEngine engine;
  Fabric fabric(engine, stable_topology(), /*seed=*/7);
  const NodeId src = fabric.add_node(kNEU, kSmallNic, kSmallNic);
  const NodeId dst = fabric.add_node(kNEU, kSmallNic, kSmallNic);
  const double nic = kSmallNic.bytes_per_second();
  std::vector<FlowId> ids;
  std::vector<std::pair<FlowId, std::int64_t>> finished;  // callback order
  std::vector<std::pair<FlowId, double>> seen_by_a;       // live rates after A's cancel
  ids.push_back(fabric.start_flow(src, dst, Bytes::of(900), {}, [&](const FlowResult& r) {
    EXPECT_TRUE(r.ok());
    finished.emplace_back(r.id, r.finished.count_micros());
    fabric.cancel_flow(ids[1]);
    for (FlowId id : ids) {
      if (!fabric.flow_active(id)) continue;
      seen_by_a.emplace_back(id, fabric.flow_rate(id).bytes_per_second());
    }
  }));
  for (int i = 1; i < 7; ++i) {
    ids.push_back(fabric.start_flow(src, dst, Bytes::gb(1), {}, [](const FlowResult&) {}));
  }
  ids.push_back(fabric.start_flow(src, dst, Bytes::of(899), {}, [&](const FlowResult& r) {
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.transferred, Bytes::of(899));
    finished.emplace_back(r.id, r.finished.count_micros());
  }));
  engine.run_until(SimTime::from_micros(100'000));  // before the first refresh tick

  // Both finished at activation (1 ms setup) + 576 us, A's callback first.
  ASSERT_EQ(finished.size(), 2u);
  EXPECT_EQ(finished[0], std::make_pair(ids[0], std::int64_t{1576}));
  EXPECT_EQ(finished[1], std::make_pair(ids[7], std::int64_t{1576}));
  ASSERT_EQ(seen_by_a.size(), 6u);
  EXPECT_EQ(seen_by_a.back().first, ids[7]);
  for (const auto& [id, rate] : seen_by_a) EXPECT_EQ(rate, nic / 6) << "flow " << id;
  // The completion's own re-settle then shares the NIC among the last five.
  for (std::size_t i = 2; i < 7; ++i) {
    EXPECT_EQ(fabric.flow_rate(ids[i]).bytes_per_second(), nic / 5) << "flow " << ids[i];
  }
}

TEST(LinkCapacityModelTest, RepeatQueriesMatchSingleQueries) {
  // A repeat query at one instant must draw nothing and return the same
  // value: settles at the same microsecond and pair_capacity_now callers
  // query a link again. Twin models from one seed: one queried once per
  // instant, one three times. The walk starts with a query at the epoch
  // (the model's initial last-query time), lands on, just before and just
  // after 30 s noise segment boundaries, and crosses many short incidents.
  VariabilityParams noisy;
  noisy.incidents_per_day = 480.0;
  noisy.incident_mean_duration = SimDuration::seconds(40);
  VariabilityParams incidents_only = noisy;
  incidents_only.diurnal_amplitude = 0.0;
  incidents_only.noise_sigma = 0.0;
  const std::vector<std::int64_t> steps_us = {0,         1,         29'999'998, 1,
                                              1,         30'000'000, 7'000'000,  45'000'000,
                                              2'500'000, 0};
  for (const VariabilityParams& params : {noisy, incidents_only}) {
    LinkCapacityModel once(ByteRate::mb_per_sec(100), params, Rng(99));
    LinkCapacityModel thrice(ByteRate::mb_per_sec(100), params, Rng(99));
    SimTime t = SimTime::epoch();
    int starts = 0;
    int ends = 0;
    double prev = 1.0;
    for (int i = 0; i < 2000; ++i) {
      t = t + SimDuration::micros(steps_us[static_cast<std::size_t>(i) % steps_us.size()]);
      const double expected = once.capacity_at(t).bytes_per_second();
      for (int k = 0; k < 3; ++k) {
        ASSERT_EQ(thrice.capacity_at(t).bytes_per_second(), expected) << "query " << i;
        ASSERT_EQ(thrice.last_factor(), once.last_factor()) << "query " << i;
      }
      if (params.noise_sigma <= 0.0) {
        starts += once.last_factor() < 1.0 && prev == 1.0 ? 1 : 0;
        ends += once.last_factor() == 1.0 && prev < 1.0 ? 1 : 0;
        prev = once.last_factor();
      }
    }
    if (params.noise_sigma <= 0.0) {
      EXPECT_GE(starts, 10);  // the walk saw incidents begin and end
      EXPECT_GE(ends, 10);
    }
  }
}

TEST_F(FabricFixture, ZeroByteFlowCompletesAfterSetup) {
  const FlowResult r = run_flow(vm(kNEU), vm(kNUS), Bytes::zero());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.transferred.is_zero());
  EXPECT_NEAR(r.elapsed().to_seconds(), topo.link(kNEU, kNUS).latency.to_seconds(), 1e-3);
}

TEST_F(FabricFixture, RejectsSelfFlow) {
  const NodeId a = vm(kNEU);
  EXPECT_THROW(fabric.start_flow(a, a, Bytes::mb(1), {}, [](const FlowResult&) {}),
               CheckFailure);
}

TEST_F(FabricFixture, StableTopologyCapacityIsConstant) {
  const ByteRate c1 = fabric.pair_capacity_now(kNEU, kNUS);
  engine.run_until(engine.now() + SimDuration::hours(5));
  const ByteRate c2 = fabric.pair_capacity_now(kNEU, kNUS);
  EXPECT_DOUBLE_EQ(c1.bytes_per_second(), c2.bytes_per_second());
}

TEST(FabricVariabilityTest, DefaultTopologyCapacityMoves) {
  sim::SimEngine engine;
  Fabric fabric(engine, default_topology(), /*seed=*/3);
  OnlineStats stats;
  for (int i = 0; i < 200; ++i) {
    engine.run_until(engine.now() + SimDuration::minutes(5));
    stats.add(fabric.pair_capacity_now(Region::kNorthEU, Region::kNorthUS)
                  .to_mb_per_sec());
  }
  EXPECT_GT(stats.stddev() / stats.mean(), 0.03);  // visibly variable
  EXPECT_GT(stats.min(), 0.0);
}

}  // namespace
}  // namespace sage::cloud
