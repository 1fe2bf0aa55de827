// Fuzz / property suite for the chaos subsystem: 200 seeded random fault
// schedules, each replayed at the shard count the seed selects from
// {1, 2, 4}, with every ChaosInvariants check applied afterwards. A failure
// prints the offending seed and the full schedule so the repro is one line:
//
//   ./chaos_fuzz_test --gtest_filter='*/ChaosScheduleFuzz.*/<seed>'
//
// Two worlds per seed:
//   1. A sharded fabric world (per-lane fabrics over a shared stable
//      topology) where the schedule strands, aborts, squeezes, partitions
//      and outages raw flows — checks fabric byte/flow conservation per
//      lane and event accounting across lanes.
//   2. A streaming pipeline over a fabric-backed WAN backend (GatewayPool +
//      DirectBackend) with live monitoring — the same schedule class may
//      abort in-flight WAN batches, so record conservation must balance
//      through the `lost` column, and sample epochs must stay monotone.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/backends.hpp"
#include "baselines/gateway.hpp"
#include "chaos/chaos.hpp"
#include "chaos_invariants.hpp"
#include "cloud/fabric.hpp"
#include "cloud/provider.hpp"
#include "cloud/topology.hpp"
#include "common/rng.hpp"
#include "core/sharded_sage.hpp"
#include "model/tradeoff.hpp"
#include "monitor/monitoring.hpp"
#include "obs/obs.hpp"
#include "simcore/sharded_engine.hpp"
#include "stream/graph.hpp"
#include "stream/operator.hpp"
#include "stream/runtime.hpp"
#include "test_util.hpp"

namespace sage {
namespace {

using chaos::ChaosController;
using chaos::ChaosTargets;
using chaos::FaultPlan;
using cloud::Region;
using sage::testing::ChaosInvariants;

SimTime at(double seconds) { return SimTime::epoch() + SimDuration::seconds(seconds); }

ByteRate nic() { return ByteRate::megabits_per_sec(200); }

/// The seed picks its own shard count, so 200 seeds cover each of the
/// three ~67 times.
std::size_t shards_for(std::uint64_t seed) {
  static constexpr std::size_t kShards[3] = {1, 2, 4};
  return kShards[seed % 3];
}

// ---------------------------------------------------------------------------
// World 1: sharded fabrics under a random schedule.
// ---------------------------------------------------------------------------

void fuzz_fabric_world(std::uint64_t seed, std::size_t shards) {
  const auto topo =
      std::make_shared<const cloud::Topology>(cloud::stable_topology());
  const cloud::ShardPlan splan = cloud::plan_shards(*topo, shards);
  sim::ShardedSimEngine engine(
      sim::ShardedSimEngine::Options{splan.shards, splan.lookahead, true, 0});
  const std::size_t lanes = engine.lane_count();

  for (std::size_t l = 0; l < lanes; ++l) engine.shard(l).enable_obs(obs::ObsConfig{});

  std::vector<std::unique_ptr<cloud::Fabric>> fabrics;
  std::vector<ChaosTargets> targets;
  for (std::size_t l = 0; l < lanes; ++l) {
    fabrics.push_back(std::make_unique<cloud::Fabric>(engine.shard(l), topo, seed + l));
    targets.push_back(ChaosTargets{fabrics[l].get(), nullptr});
  }

  // Cross-region pairs the schedule can plausibly hit.
  std::vector<std::pair<Region, Region>> pairs;
  for (const cloud::Topology::Edge& e : topo->edges()) {
    if (e.src != e.dst) pairs.emplace_back(e.src, e.dst);
  }
  ASSERT_FALSE(pairs.empty());

  // A handful of flows per lane, starting staggered through the fault window
  // so some begin mid-outage (rejected), some get stranded, some sail clean.
  struct alignas(64) LaneTally {
    std::uint64_t finished = 0;
  };
  std::vector<LaneTally> tally(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    Rng rng(seed * 7919 + l);
    cloud::Fabric* fabric = fabrics[l].get();
    LaneTally* t = &tally[l];
    const int flows = static_cast<int>(rng.uniform_int(3, 6));
    for (int i = 0; i < flows; ++i) {
      const auto& pair = pairs[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pairs.size()) - 1))];
      const auto src = fabric->add_node(pair.first, nic(), nic());
      const auto dst = fabric->add_node(pair.second, nic(), nic());
      const Bytes size = Bytes::mb(rng.uniform_int(4, 24));
      const SimDuration start = SimDuration::seconds(rng.uniform(0.0, 90.0));
      engine.shard(l).schedule_after(start, [fabric, t, src, dst, size] {
        fabric->start_flow(src, dst, size, {},
                           [t](const cloud::FlowResult&) { ++t->finished; });
      });
    }
  }

  FaultPlan plan =
      FaultPlan::random(seed, *topo, at(1), SimDuration::seconds(120), 8);
  SCOPED_TRACE("seed=" + std::to_string(seed) + " shards=" +
               std::to_string(shards) + "\nschedule:\n" + plan.describe());
  ChaosController chaos(engine, std::move(targets), std::move(plan),
                        /*enabled=*/true);

  // Every timed fault reverts by ~181s; give restored links time to drain.
  engine.run_until(at(600));

  ChaosInvariants inv;
  std::uint64_t active = 0;
  for (std::size_t l = 0; l < lanes; ++l) {
    inv.check_fabric(engine.shard(l), *fabrics[l]);
    active += fabrics[l]->active_flow_count();
  }
  // Each lane may hold a dormant refresh event, plus rate/completion events
  // for any flow still draining.
  inv.check_engine(engine, /*allowed_live=*/lanes + 2 * active);
  EXPECT_TRUE(inv.ok()) << inv.report();
  EXPECT_GT(chaos.faults_applied(), 0u);
}

// ---------------------------------------------------------------------------
// World 2: a streaming pipeline whose WAN batches ride the same fabric the
// schedule is attacking.
// ---------------------------------------------------------------------------

void fuzz_stream_world(std::uint64_t seed) {
  sim::SimEngine engine;
  engine.enable_obs(obs::ObsConfig{});
  cloud::CloudProvider provider(engine, cloud::stable_topology(), seed);
  Rng rng(seed ^ 0xf522u);

  stream::JobGraph g;
  stream::SourceSpec spec;
  spec.records_per_sec = 500.0;
  spec.key_count = 32;
  const auto src = g.add_source("src", Region::kNorthEU, spec);
  stream::VertexId prev = src;
  const int ops = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < ops; ++i) {
    const Region site =
        rng.chance(0.5) ? Region::kNorthEU : Region::kNorthUS;
    const std::string name = "op" + std::to_string(i);
    std::shared_ptr<stream::Operator> op;
    const double kind = rng.uniform(0.0, 1.0);
    if (kind < 0.4) {
      op = stream::make_map(name, [](const stream::Record& r) {
        stream::Record out = r;
        out.value = r.value * 2.0;
        return out;
      });
    } else if (kind < 0.8) {
      const std::uint64_t mod = static_cast<std::uint64_t>(rng.uniform_int(2, 5));
      op = stream::make_filter(
          name, [mod](const stream::Record& r) { return r.key % mod != 0; });
    } else {
      op = stream::make_window_aggregate(name, SimDuration::seconds(1),
                                         stream::AggregateFn::kSum);
    }
    const auto v = g.add_operator(name, site, op);
    g.connect(prev, v);
    prev = v;
  }
  const auto sink = g.add_sink("sink", Region::kNorthUS);
  g.connect(prev, sink);

  // Fabric-backed WAN: chaos can abort the batch flows mid-flight, which
  // must surface as `stream.wan.records.lost` — never as vanished records.
  baselines::GatewayPool pool(provider);
  net::TransferConfig tc;
  tc.chunk_size = Bytes::kb(256);
  tc.max_attempts = 2;
  baselines::DirectBackend backend(pool, tc);

  monitor::MonitorConfig mc;
  mc.probe_interval = SimDuration::seconds(30);
  monitor::MonitoringService monitoring(provider, mc);
  for (Region r : {Region::kNorthEU, Region::kNorthUS}) {
    monitoring.register_agent(r, provider.provision(r, cloud::VmSize::kSmall).id);
  }
  monitoring.start();

  stream::RuntimeConfig rc;
  rc.seed = seed;
  rc.geo_batch_max_bytes = Bytes::kb(64);
  rc.geo_batch_max_delay = SimDuration::millis(250);
  stream::StreamRuntime runtime(provider, g, backend, rc);
  runtime.start();

  FaultPlan plan = FaultPlan::random(seed * 31 + 5, provider.topology(),
                                     engine.now() + SimDuration::seconds(2),
                                     SimDuration::seconds(15), 6);
  SCOPED_TRACE("seed=" + std::to_string(seed) + "\nschedule:\n" + plan.describe());
  ChaosController chaos(engine, ChaosTargets{&provider.fabric(), &monitoring},
                        std::move(plan), /*enabled=*/true);

  ChaosInvariants inv;
  inv.check_epoch(monitoring);
  engine.run_until(engine.now() + SimDuration::seconds(25));

  inv.check_stream(engine, runtime);
  inv.check_fabric(engine, provider.fabric());
  inv.check_epoch(monitoring);
  EXPECT_TRUE(inv.ok()) << inv.report();

  monitoring.stop();
  runtime.stop();
}

// ---------------------------------------------------------------------------
// World 3 (every 10th seed — a full control plane is the priciest world): a
// sharded deploy_sage scenario under the same schedule class. The property
// is the lock-step epoch invariant of core::ShardedSage — arbitrary faults
// (outages killing agents and probe endpoints, poisoned estimators,
// partitions stranding transfers) must never make one lane's sample epoch
// diverge from another's, because the per-lane plan/resolve caches key on
// it being identical everywhere.
// ---------------------------------------------------------------------------

void fuzz_plane_world(std::uint64_t seed, std::size_t shards) {
  const auto topo =
      std::make_shared<const cloud::Topology>(cloud::stable_topology());
  core::SageConfig config;
  config.regions = topo->regions();
  config.monitoring.probe_interval = SimDuration::minutes(1);
  core::ShardedSage::Options opts;
  opts.shards = shards;
  core::ShardedSage sage(topo, seed, config, opts);
  sage.deploy();
  sage.run_for(SimDuration::minutes(5));
  const SimTime t0 = sage.engine().shard(0).now();

  std::vector<std::pair<Region, Region>> pairs;
  for (const cloud::Topology::Edge& e : topo->edges()) {
    if (e.src != e.dst) pairs.emplace_back(e.src, e.dst);
  }
  ASSERT_FALSE(pairs.empty());

  Rng rng(seed ^ 0x51a6e5u);
  struct alignas(64) LaneDone {
    int done = 0;
  };
  std::vector<LaneDone> done(sage.lane_count());
  const int sends = 4;
  for (int i = 0; i < sends; ++i) {
    const auto [a, b] = pairs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pairs.size()) - 1))];
    const std::size_t l = sage.lane_of(a);
    const Bytes payload = Bytes::mb(rng.uniform_int(24, 64));
    const SimDuration start = SimDuration::seconds(rng.uniform(0.0, 60.0));
    LaneDone* slot = &done[l];
    core::ShardedSage* plane = &sage;
    sage.engine().shard(l).schedule_after(start, [plane, slot, a, b, payload] {
      plane->send(a, b, payload, model::Tradeoff::fastest(),
                  [slot](const stream::SendOutcome&) { ++slot->done; });
    });
  }

  FaultPlan plan = FaultPlan::random(seed * 131 + 7, *topo,
                                     t0 + SimDuration::seconds(5),
                                     SimDuration::seconds(120), 8);
  SCOPED_TRACE("seed=" + std::to_string(seed) + " shards=" +
               std::to_string(shards) + "\nschedule:\n" + plan.describe());
  std::vector<ChaosTargets> targets;
  for (std::size_t l = 0; l < sage.lane_count(); ++l) {
    targets.push_back(
        ChaosTargets{&sage.provider(l).fabric(), &sage.lane(l).monitoring()});
  }
  ChaosController chaos(sage.engine(), std::move(targets), std::move(plan),
                        /*enabled=*/true);

  ChaosInvariants inv;
  auto total_done = [&] {
    int n = 0;
    for (const LaneDone& d : done) n += d.done;
    return n;
  };
  for (int window = 0; window < 30; ++window) {
    sage.run_for(SimDuration::minutes(2));
    ASSERT_TRUE(sage.epochs_consistent()) << "epochs diverged in window " << window;
    inv.check_epoch(sage.lane(0).monitoring());
    if (total_done() == sends && window >= 2) break;
  }
  EXPECT_TRUE(inv.ok()) << inv.report();
  EXPECT_EQ(total_done(), sends) << "a send never resolved within the budget";
  EXPECT_GT(chaos.faults_applied(), 0u);
}

// ---------------------------------------------------------------------------
// 200 seeds; each runs both worlds at its shard count (every 10th adds the
// full sharded control plane).
// ---------------------------------------------------------------------------

class ChaosScheduleFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosScheduleFuzz, InvariantsHoldUnderRandomSchedule) {
  const std::uint64_t seed = GetParam();
  const std::size_t shards = shards_for(seed);
  fuzz_fabric_world(seed, shards);
  fuzz_stream_world(seed);
  if (seed % 10 == 7) fuzz_plane_world(seed, shards);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosScheduleFuzz,
                         ::testing::Range<std::uint64_t>(0, 200));

}  // namespace
}  // namespace sage
