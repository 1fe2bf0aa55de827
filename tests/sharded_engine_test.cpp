// ShardedSimEngine contract tests: one lane against the plain engine,
// deterministic cross-shard mailbox ordering, the conservative lookahead
// horizon, lane failures in parallel windows, the positive-lookahead check
// (and the one-shard plan a zero-latency cross-shard edge gets), shard
// planning, and the sharded-vs-sequential fabric differential at awkward
// shard counts and thread counts.
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/fabric.hpp"
#include "cloud/topology.hpp"
#include "common/check.hpp"
#include "simcore/sharded_engine.hpp"

namespace sage::sim {
namespace {

using cloud::Region;
using cloud::make_region;

// -- Kernel: one lane --------------------------------------------------------

TEST(ShardedEngine, SingleLaneMatchesPlainEngine) {
  // One lane with the plan's unbounded lookahead runs the same window loop
  // as every other shard count, one window per run_until call, and fires
  // the plain engine's events in the plain engine's order.
  SimEngine plain;
  ShardedSimEngine sharded(ShardedSimEngine::Options{});
  ASSERT_EQ(sharded.lane_count(), 1u);

  // Identical schedule on both engines: an equal-time tie, a cancellation,
  // a reschedule, and a callback that schedules more work, part of it past
  // the next horizon.
  std::vector<int> a, b;
  const auto load = [](SimEngine& e, std::vector<int>& out) {
    e.schedule_at(SimTime::from_micros(300), [&out] { out.push_back(3); });
    e.schedule_at(SimTime::from_micros(100), [&out, ep = &e] {
      out.push_back(1);
      ep->schedule_after(SimDuration::micros(50), [&out] { out.push_back(4); });
      ep->schedule_after(SimDuration::micros(450), [&out] { out.push_back(6); });
    });
    EventHandle dead = e.schedule_at(SimTime::from_micros(200), [&out] { out.push_back(9); });
    e.schedule_at(SimTime::from_micros(100), [&out] { out.push_back(2); });
    const EventHandle moved =
        e.schedule_at(SimTime::from_micros(120), [&out] { out.push_back(5); });
    dead.cancel();
    e.reschedule(moved, SimTime::from_micros(400));
  };
  load(plain, a);
  load(sharded.shard(0), b);

  for (const std::int64_t t : {250, 500, 800}) {
    SCOPED_TRACE("t=" + std::to_string(t));
    plain.run_until(SimTime::from_micros(t));
    sharded.run_until(SimTime::from_micros(t));
    EXPECT_EQ(a, b);
    EXPECT_EQ(plain.now(), sharded.now());
    EXPECT_EQ(plain.events_fired(), sharded.events_fired());
    EXPECT_EQ(plain.events_scheduled(), sharded.events_scheduled());
    EXPECT_EQ(plain.events_cancelled(), sharded.events_cancelled());
  }
  EXPECT_EQ(b, std::vector<int>({1, 2, 4, 3, 5, 6}));
  EXPECT_EQ(sharded.windows_run(), 3u) << "one window per run_until call";
}

TEST(ShardedEngine, OneLanePostIsAnOrdinaryLocalEvent) {
  ShardedSimEngine e(ShardedSimEngine::Options{1, SimDuration::millis(10), true, 0});
  std::vector<int> fired;
  // A same-shard post has no horizon to respect, so any delay is legal.
  e.post(0, 0, SimDuration::micros(5), [&fired] { fired.push_back(1); });
  e.run_until(SimTime::from_micros(100));
  EXPECT_EQ(fired, std::vector<int>({1}));
  EXPECT_EQ(e.events_fired(), 1u);
}

// -- Cross-shard ordering ----------------------------------------------------

TEST(ShardedEngine, MailboxMergeOrdersByTimeSrcShardSeq) {
  // Inline lanes so the observation vector needs no synchronization; the
  // parallel path is differential-tested against inline below.
  ShardedSimEngine e(ShardedSimEngine::Options{3, SimDuration::millis(10), false, 0});
  ASSERT_EQ(e.lane_count(), 3u);
  std::vector<std::string> order;

  // Shards 0 and 2 both post to shard 1, all arriving at the same instant.
  // Post call order deliberately interleaves the sources; the merge must
  // re-order by (arrival time, src shard, per-src seq), not call order.
  e.shard(2).schedule_at(SimTime::epoch(), [&e, &order] {
    e.post(2, 1, SimDuration::millis(10), [&order] { order.push_back("s2#0"); });
    e.post(2, 1, SimDuration::millis(10), [&order] { order.push_back("s2#1"); });
  });
  e.shard(0).schedule_at(SimTime::epoch(), [&e, &order] {
    e.post(0, 1, SimDuration::millis(10), [&order] { order.push_back("s0#0"); });
    e.post(0, 1, SimDuration::millis(12), [&order] { order.push_back("s0-late"); });
    e.post(0, 1, SimDuration::millis(10), [&order] { order.push_back("s0#1"); });
  });
  e.run_until(SimTime::from_micros(20000));
  EXPECT_EQ(order, std::vector<std::string>(
                       {"s0#0", "s0#1", "s2#0", "s2#1", "s0-late"}));
  EXPECT_EQ(e.cross_posts(), 5u);
}

TEST(ShardedEngine, PostBelowLookaheadHorizonIsRejected) {
  ShardedSimEngine e(ShardedSimEngine::Options{2, SimDuration::millis(10), true, 0});
  ASSERT_EQ(e.lane_count(), 2u);
  EXPECT_THROW(e.post(0, 1, SimDuration::millis(5), [] {}), CheckFailure);
  // Local posts are exempt — no horizon between a shard and itself.
  e.post(0, 0, SimDuration::millis(5), [] {});
  // At exactly the horizon is legal.
  e.post(0, 1, SimDuration::millis(10), [] {});
  e.run_until(SimTime::from_micros(20000));
  EXPECT_EQ(e.events_fired(), 2u);
}

TEST(ShardedEngine, ConservativeWindowsNeverOvertakeCrossShardArrivals) {
  // Shard 0 fires at t=0 and posts to shard 1 at exactly the horizon; shard 1
  // has local events straddling the arrival. Observed order on shard 1 must
  // be by timestamp even though shard 1's lane could race ahead of shard 0
  // within a window.
  ShardedSimEngine e(ShardedSimEngine::Options{2, SimDuration::millis(4), false, 0});
  std::vector<std::string> s1;
  e.shard(1).schedule_at(SimTime::from_micros(1000), [&s1] { s1.push_back("local@1ms"); });
  e.shard(1).schedule_at(SimTime::from_micros(6000), [&s1] { s1.push_back("local@6ms"); });
  e.shard(0).schedule_at(SimTime::epoch(), [&e, &s1] {
    e.post(0, 1, SimDuration::millis(4), [&s1] { s1.push_back("cross@4ms"); });
  });
  e.run_until(SimTime::from_micros(10000));
  EXPECT_EQ(s1, std::vector<std::string>({"local@1ms", "cross@4ms", "local@6ms"}));
  EXPECT_GE(e.windows_run(), 2u) << "the horizon forces at least two windows";
  EXPECT_EQ(e.now(), SimTime::from_micros(10000));
}

TEST(ShardedEngine, ChainedCrossPostsAtHorizonMultiplesAllArrive) {
  // Ping-pong a token around S shards: each hop is exactly one horizon.
  constexpr std::size_t kShards = 4;
  constexpr int kHops = 25;
  ShardedSimEngine e(ShardedSimEngine::Options{kShards, SimDuration::millis(1), true, 0});
  ASSERT_EQ(e.lane_count(), kShards);
  std::vector<std::uint64_t> hop_count(kShards, 0);

  // std::function spelling so the callback can re-post itself recursively.
  std::function<void(std::size_t, int)> bounce = [&](std::size_t at, int left) {
    ++hop_count[at];
    if (left == 0) return;
    const std::size_t next = (at + 1) % kShards;
    e.post(at, next, SimDuration::millis(1),
           [&bounce, next, left] { bounce(next, left - 1); });
  };
  e.shard(0).schedule_at(SimTime::epoch(), [&bounce] { bounce(0, kHops); });
  // The last hop lands at kHops ms; run well past it.
  const SimTime end = SimTime::epoch() + SimDuration::millis(2 * kHops);
  e.run_until(end);
  std::uint64_t total = 0;
  for (std::uint64_t h : hop_count) total += h;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kHops) + 1);
  EXPECT_EQ(e.events_fired(), static_cast<std::uint64_t>(kHops) + 1);
  EXPECT_EQ(e.cross_posts(), static_cast<std::uint64_t>(kHops));
  EXPECT_EQ(e.now(), end);
}

TEST(ShardedEngine, LaneFailureInParallelWindowSurfacesFromRun) {
  // A lane-3 callback breaks the horizon contract on a helper thread (lane 3
  // is worker 1's at width 2 and worker 3's at width 4). run_until rethrows
  // it on the caller after the window's finish phase, with every helper
  // parked, so the engine is then destroyed cleanly.
  for (const std::size_t threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ShardedSimEngine e(
        ShardedSimEngine::Options{4, SimDuration::millis(10), true, threads});
    ASSERT_EQ(e.lane_count(), 4u);
    for (std::size_t s = 0; s < 3; ++s) {
      e.shard(s).schedule_at(SimTime::from_micros(1000), [] {});
    }
    e.shard(3).schedule_at(SimTime::from_micros(1000), [&e] {
      e.post(3, 0, SimDuration::millis(5), [] {});
    });
    EXPECT_THROW(e.run_until(SimTime::from_micros(50000)), CheckFailure);
  }
}

// -- Positive lookahead ------------------------------------------------------

TEST(ShardedEngine, NonPositiveLookaheadIsRejected) {
  // A zero horizon admits no window wider than a point, so the engine
  // refuses it at any shard count instead of spinning on empty windows.
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    for (const SimDuration lookahead : {SimDuration::zero(), SimDuration::micros(-1)}) {
      EXPECT_THROW(ShardedSimEngine(ShardedSimEngine::Options{shards, lookahead, true, 0}),
                   CheckFailure);
    }
  }
}

TEST(ShardedEngine, ZeroLatencyCrossShardEdgeDoesNotDeadlock) {
  // A topology whose only cross-shard edge has zero latency: the planner
  // keeps that edge inside one shard, so the engine runs one lane with an
  // unbounded lookahead.
  cloud::TopologyBuilder b(2);
  const auto stable = cloud::VariabilityParams::stable();
  const cloud::PairLinkSpec intra{ByteRate::megabits_per_sec(10000),
                                  ByteRate::megabits_per_sec(1000),
                                  SimDuration::micros(100), stable};
  const cloud::PairLinkSpec wire{ByteRate::megabits_per_sec(1000),
                                 ByteRate::megabits_per_sec(100),
                                 SimDuration::zero(), stable};
  b.add_link(make_region(0), make_region(0), intra);
  b.add_link(make_region(1), make_region(1), intra);
  b.add_symmetric(make_region(0), make_region(1), wire);
  const auto topo = std::make_shared<const cloud::Topology>(b.build());

  const cloud::ShardPlan plan = cloud::plan_shards(*topo, 2);
  EXPECT_EQ(plan.shards, 1u);
  EXPECT_EQ(plan.lookahead, SimDuration::max());
  EXPECT_EQ(plan.shard(make_region(1)), 0u);

  ShardedSimEngine e(ShardedSimEngine::Options{plan.shards, plan.lookahead, true, 0});
  ASSERT_EQ(e.lane_count(), 1u);
  cloud::Fabric fabric(e.shard(0), topo, /*seed=*/7);
  const auto src = fabric.add_node(make_region(0), ByteRate::megabits_per_sec(100),
                                   ByteRate::megabits_per_sec(100));
  const auto dst = fabric.add_node(make_region(1), ByteRate::megabits_per_sec(100),
                                   ByteRate::megabits_per_sec(100));
  bool done = false;
  fabric.start_flow(src, dst, Bytes::mb(10), {}, [&done](const cloud::FlowResult& r) {
    done = r.ok();
  });
  e.run_until(e.now() + SimDuration::minutes(5));
  EXPECT_TRUE(done);
}

// -- Shard planning ----------------------------------------------------------

TEST(ShardPlan, ContiguousBlocksCoverEveryShard) {
  const cloud::Topology topo = cloud::ring_of_continents(16, 8, /*stable=*/true);
  for (const std::size_t s : {1u, 2u, 3u, 4u, 7u, 16u}) {
    const cloud::ShardPlan plan = cloud::plan_shards(topo, s);
    EXPECT_EQ(plan.shards, s);
    ASSERT_EQ(plan.shard_of.size(), 16u);
    std::vector<int> seen(s, 0);
    std::uint32_t prev = 0;
    for (const std::uint32_t v : plan.shard_of) {
      EXPECT_LT(v, s);
      EXPECT_GE(v, prev) << "blocks must be contiguous";
      prev = v;
      ++seen[v];
    }
    for (const int count : seen) EXPECT_GT(count, 0) << "no shard may be empty";
  }
}

TEST(ShardPlan, ClampsShardCountToRegionCount) {
  const cloud::Topology topo = cloud::ring_of_continents(8, 4, /*stable=*/true);
  EXPECT_EQ(cloud::plan_shards(topo, 0).shards, 1u);
  EXPECT_EQ(cloud::plan_shards(topo, 100).shards, 8u);
}

TEST(ShardPlan, LookaheadIsMinimumCrossShardLatency) {
  const cloud::Topology topo = cloud::ring_of_continents(16, 8, /*stable=*/true);
  const cloud::ShardPlan plan = cloud::plan_shards(topo, 4);
  SimDuration expect = SimDuration::max();
  bool any = false;
  for (const cloud::Topology::Edge& e : topo.edges()) {
    if (plan.shard(e.src) == plan.shard(e.dst)) continue;
    any = true;
    if (e.spec.latency < expect) expect = e.spec.latency;
  }
  ASSERT_TRUE(any);
  EXPECT_EQ(plan.lookahead, expect);
  EXPECT_GT(plan.lookahead, SimDuration::zero());
}

TEST(ShardPlan, NoCrossShardEdgesMeansUnboundedLookahead) {
  // Two islands with no link between them.
  cloud::TopologyBuilder b(2);
  const auto stable = cloud::VariabilityParams::stable();
  const cloud::PairLinkSpec intra{ByteRate::megabits_per_sec(10000),
                                  ByteRate::megabits_per_sec(1000),
                                  SimDuration::micros(100), stable};
  b.add_link(make_region(0), make_region(0), intra);
  b.add_link(make_region(1), make_region(1), intra);
  const cloud::Topology topo = b.build();
  const cloud::ShardPlan plan = cloud::plan_shards(topo, 2);
  EXPECT_EQ(plan.lookahead, SimDuration::max());

  // Independent lanes run in one window without overflowing the window math.
  ShardedSimEngine e(ShardedSimEngine::Options{plan.shards, plan.lookahead, true, 0});
  ASSERT_EQ(e.lane_count(), 2u);
  std::vector<std::uint64_t> fired(2, 0);
  e.shard(0).schedule_at(SimTime::from_micros(50), [&fired] { ++fired[0]; });
  e.shard(1).schedule_at(SimTime::from_micros(70), [&fired] { ++fired[1]; });
  e.run_until(SimTime::from_micros(1000));
  EXPECT_EQ(e.events_fired(), 2u);
  EXPECT_EQ(fired[0], 1u);
  EXPECT_EQ(fired[1], 1u);
  EXPECT_EQ(e.windows_run(), 1u);
}

// -- Sharded-vs-sequential fabric differential -------------------------------

struct WorldOutcome {
  int completed = 0;
  int relays = 0;
  std::int64_t delivered = 0;
  int exact_payloads = 0;  // completed transfers whose bytes matched exactly

  bool operator==(const WorldOutcome&) const = default;
};

// A miniature of bench_fig_scale's sharded mode: initial flows round-robin
// over declared WAN pairs, owned by the src region's shard, each completed
// flow bouncing a depth-1 relay back across shards at WAN latency.
WorldOutcome run_sharded_world(std::size_t shards, bool parallel) {
  const auto topo = std::make_shared<const cloud::Topology>(
      cloud::ring_of_continents(16, 8, /*stable=*/true));
  const cloud::ShardPlan plan = cloud::plan_shards(*topo, shards);
  ShardedSimEngine engine(
      ShardedSimEngine::Options{plan.shards, plan.lookahead, parallel, 0});
  const auto lane_of = [&](Region r) -> std::size_t { return plan.shard(r); };

  std::vector<std::unique_ptr<cloud::Fabric>> fabrics;
  for (std::size_t l = 0; l < engine.lane_count(); ++l) {
    fabrics.push_back(std::make_unique<cloud::Fabric>(engine.shard(l), topo, 40 + l));
  }

  std::vector<std::pair<Region, Region>> pairs;
  for (const cloud::Topology::Edge& e : topo->edges()) {
    if (e.src != e.dst) pairs.emplace_back(e.src, e.dst);
  }

  struct alignas(64) LaneTally {
    int completed = 0;
    int relays = 0;
    std::int64_t delivered = 0;
    int exact = 0;
  };
  std::vector<LaneTally> tally(engine.lane_count());
  const auto nic = ByteRate::megabits_per_sec(100);

  constexpr int kFlows = 240;
  for (int i = 0; i < kFlows; ++i) {
    const auto [a, b] = pairs[static_cast<std::size_t>(i) % pairs.size()];
    const std::size_t sa = plan.shard(a);
    const std::size_t sb = plan.shard(b);
    cloud::Fabric& owner = *fabrics[lane_of(a)];
    const auto src = owner.add_node(a, nic, nic);
    const auto dst = owner.add_node(b, nic, nic);
    const Bytes payload = Bytes::mb(20 + (i % 5) * 10);
    const Bytes relay_payload = Bytes::mb(15 + (i % 3) * 5);
    const SimDuration hop = topo->link(a, b).latency;
    owner.start_flow(
        src, dst, payload, {},
        [&engine, &fabrics, &tally, &lane_of, a, b, sa, sb, hop, payload,
         relay_payload, nic](const cloud::FlowResult& r) {
          if (!r.ok()) return;
          LaneTally& t = tally[lane_of(a)];
          ++t.completed;
          t.delivered += r.transferred.count();
          // Conservation: a completed flow delivered exactly its payload.
          if (r.transferred == payload) ++t.exact;
          engine.post(sa, sb, hop,
                      [&fabrics, &tally, &lane_of, a, b, relay_payload, nic] {
                        cloud::Fabric& f = *fabrics[lane_of(b)];
                        const auto s2 = f.add_node(b, nic, nic);
                        const auto d2 = f.add_node(a, nic, nic);
                        f.start_flow(s2, d2, relay_payload, {},
                                     [&tally, &lane_of, b,
                                      relay_payload](const cloud::FlowResult& rr) {
                                       if (!rr.ok()) return;
                                       LaneTally& t2 = tally[lane_of(b)];
                                       ++t2.relays;
                                       t2.delivered += rr.transferred.count();
                                       if (rr.transferred == relay_payload) ++t2.exact;
                                     });
                      });
        });
  }

  engine.run_until(engine.now() + SimDuration::minutes(8));

  WorldOutcome out;
  for (const LaneTally& t : tally) {
    out.completed += t.completed;
    out.relays += t.relays;
    out.delivered += t.delivered;
    out.exact_payloads += t.exact;
  }
  return out;
}

TEST(ShardedFabric, AwkwardShardCountsMatchSequentialBaseline) {
  // S=1 runs one fabric on one lane: the true sequential baseline.
  const WorldOutcome base = run_sharded_world(1, /*parallel=*/false);
  ASSERT_GT(base.completed, 0);
  ASSERT_GT(base.relays, 0);
  // Conservation: every completed transfer moved exactly its payload.
  EXPECT_EQ(base.exact_payloads, base.completed + base.relays);

  for (const std::size_t s : {2u, 3u, 7u, 64u}) {
    const WorldOutcome sharded = run_sharded_world(s, /*parallel=*/true);
    EXPECT_EQ(sharded, base) << "S=" << s << " diverged from sequential";
  }
}

TEST(ShardedFabric, ParallelAndInlineLanesLeaveIdenticalEngineState) {
  // Same shard count, inline vs 1-4 lane-driving threads: full
  // engine-counter equality, not just outcome equality — windows, cross
  // posts, per-lane event totals all match because lanes are
  // data-independent in a window. Width 1 is inline; width 3 over 4 lanes
  // gives the caller (worker 0) an uneven stripe, lanes 0 and 3.
  const auto topo = std::make_shared<const cloud::Topology>(
      cloud::ring_of_continents(16, 8, /*stable=*/true));
  const cloud::ShardPlan plan = cloud::plan_shards(*topo, 4);

  // threads == 0 runs lanes with parallel = false.
  const auto drive = [&](std::size_t threads, std::vector<std::uint64_t>* per_lane) {
    ShardedSimEngine engine(
        ShardedSimEngine::Options{plan.shards, plan.lookahead, threads > 0, threads});
    std::vector<std::unique_ptr<cloud::Fabric>> fabrics;
    for (std::size_t l = 0; l < engine.lane_count(); ++l) {
      fabrics.push_back(std::make_unique<cloud::Fabric>(engine.shard(l), topo, 90 + l));
    }
    std::vector<std::pair<Region, Region>> pairs;
    for (const cloud::Topology::Edge& e : topo->edges()) {
      if (e.src != e.dst) pairs.emplace_back(e.src, e.dst);
    }
    const auto nic = ByteRate::megabits_per_sec(100);
    for (int i = 0; i < 120; ++i) {
      const auto [a, b] = pairs[static_cast<std::size_t>(i) % pairs.size()];
      cloud::Fabric& owner = *fabrics[plan.shard(a)];
      const auto src = owner.add_node(a, nic, nic);
      const auto dst = owner.add_node(b, nic, nic);
      owner.start_flow(src, dst, Bytes::mb(25 + (i % 4) * 5), {},
                       [](const cloud::FlowResult&) {});
    }
    engine.run_until(engine.now() + SimDuration::minutes(6));
    per_lane->clear();
    for (std::size_t l = 0; l < engine.lane_count(); ++l) {
      per_lane->push_back(engine.shard(l).events_fired());
      per_lane->push_back(engine.shard(l).events_scheduled());
      per_lane->push_back(engine.shard(l).events_cancelled());
    }
    per_lane->push_back(engine.windows_run());
    per_lane->push_back(engine.cross_posts());
    return engine.events_fired();
  };

  std::vector<std::uint64_t> seq_state;
  const std::uint64_t seq_fired = drive(0, &seq_state);
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<std::uint64_t> par_state;
    EXPECT_EQ(drive(threads, &par_state), seq_fired);
    EXPECT_EQ(par_state, seq_state);
  }
}

}  // namespace
}  // namespace sage::sim
