// Differential determinism tests for chaos runs.
//
// The subsystem's contract has two halves:
//
//   * OFF is invisible: a constructed-but-disabled controller produces a
//     world byte-identical to one with no controller at all (the fabric
//     half lives in chaos_test.cpp; the streaming half is here). Only
//     worlds that construct a controller have chaos at all.
//   * ON is deterministic: the same seed and schedule produce bit-identical
//     results at any shard count (S in {1, 2, 4}) and any worker
//     configuration (sequential fallback, 1 worker, 4 workers), because
//     faults are lane-local events serialized through the engine like any
//     other traffic.
//
// The sharded world mirrors bench_fig_scale's invariance recipe: a shared
// *stable* topology (no RNG influence on rates), one fabric per lane, each
// flow owned by its source region's lane with fresh per-flow endpoints so
// distinct pairs settle on disjoint link sets. A fault on pair (a, b) then
// hits exactly the flows of that pair — the same set, in the same id order,
// at every S.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/chaos.hpp"
#include "chaos_invariants.hpp"
#include "cloud/fabric.hpp"
#include "cloud/provider.hpp"
#include "cloud/topology.hpp"
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

SimTime at(double seconds) { return SimTime::epoch() + SimDuration::seconds(seconds); }

ByteRate nic() { return ByteRate::megabits_per_sec(100); }

// ---------------------------------------------------------------------------
// Chaos-on sharded fabric digest.
// ---------------------------------------------------------------------------

struct EngineKnobs {
  std::size_t shards;
  bool parallel;
  std::size_t max_workers;
};

/// Runs the canonical chaos scenario and digests every simulation-visible
/// outcome: per-flow (outcome, bytes, finish time) in flow-construction
/// order plus the lane-summed fabric byte/flow counters.
std::string chaos_digest(const EngineKnobs& knobs) {
  const auto topo =
      std::make_shared<const cloud::Topology>(cloud::stable_topology());
  const cloud::ShardPlan plan = cloud::plan_shards(*topo, knobs.shards);
  sim::ShardedSimEngine engine(sim::ShardedSimEngine::Options{
      plan.shards, plan.lookahead, knobs.parallel, knobs.max_workers});
  const auto lane_of = [&](Region r) -> std::size_t { return plan.shard(r); };

  for (std::size_t l = 0; l < engine.lane_count(); ++l) {
    engine.shard(l).enable_obs(obs::ObsConfig{});
  }

  std::vector<std::unique_ptr<cloud::Fabric>> fabrics;
  std::vector<ChaosTargets> targets;
  for (std::size_t l = 0; l < engine.lane_count(); ++l) {
    fabrics.push_back(std::make_unique<cloud::Fabric>(engine.shard(l), topo, 60 + l));
    targets.push_back(ChaosTargets{fabrics[l].get(), nullptr});
  }

  std::vector<std::pair<Region, Region>> pairs;
  for (const cloud::Topology::Edge& e : topo->edges()) {
    if (e.src != e.dst) pairs.emplace_back(e.src, e.dst);
  }

  struct FlowProbe {
    int outcome = -1;
    std::int64_t transferred = 0;
    double finished = 0.0;
  };
  constexpr int kFlows = 24;
  std::vector<FlowProbe> probes(kFlows);
  for (int i = 0; i < kFlows; ++i) {
    const auto [a, b] = pairs[static_cast<std::size_t>(i) % pairs.size()];
    cloud::Fabric& owner = *fabrics[lane_of(a)];
    const auto src = owner.add_node(a, nic(), nic());
    const auto dst = owner.add_node(b, nic(), nic());
    const Bytes payload = Bytes::mb(20 + (i % 5) * 15);
    FlowProbe* probe = &probes[static_cast<std::size_t>(i)];
    owner.start_flow(src, dst, payload, {}, [probe](const cloud::FlowResult& r) {
      probe->outcome = static_cast<int>(r.outcome);
      probe->transferred = r.transferred.count();
      probe->finished = (r.finished - SimTime::epoch()).to_seconds();
    });
  }

  // One seeded schedule shared by every configuration under test: link cuts
  // (stranding and aborting), squeezes, spikes, bursts, outages, partitions.
  FaultPlan fplan =
      FaultPlan::random(99, *topo, at(5), SimDuration::seconds(60), 10);
  ChaosController chaos(engine, std::move(targets), std::move(fplan),
                        /*enabled=*/true);

  engine.run_until(at(900));

  std::string digest;
  char buf[96];
  for (int i = 0; i < kFlows; ++i) {
    const FlowProbe& p = probes[static_cast<std::size_t>(i)];
    std::snprintf(buf, sizeof(buf), "%d:%d:%lld:%.9f;", i, p.outcome,
                  static_cast<long long>(p.transferred), p.finished);
    digest += buf;
  }
  const char* kCounters[] = {"fabric.flows.started",   "fabric.flows.completed",
                             "fabric.flows.failed",    "fabric.flows.cancelled",
                             "fabric.bytes.offered",   "fabric.bytes.moved",
                             "fabric.bytes.forgiven",  "fabric.bytes.aborted"};
  for (const char* name : kCounters) {
    std::uint64_t total = 0;
    for (std::size_t l = 0; l < engine.lane_count(); ++l) {
      if (const obs::Counter* c = engine.shard(l).obs()->metrics().find_counter(name)) {
        total += c->value();
      }
    }
    digest += std::string(name) + "=" + std::to_string(total) + ";";
  }
  digest += "applied=" + std::to_string(chaos.faults_applied() / engine.lane_count()) +
            ";reverted=" + std::to_string(chaos.reverts_applied() / engine.lane_count());
  return digest;
}

TEST(ChaosDifferential, ShardCountInvariance) {
  const std::string s1 = chaos_digest({1, true, 0});
  const std::string s2 = chaos_digest({2, true, 0});
  const std::string s4 = chaos_digest({4, true, 0});
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1, s4);
  // The scenario is non-trivial: at least one flow was killed by the
  // schedule and at least one completed despite it.
  EXPECT_NE(s1.find(":1:", 0), std::string::npos) << s1;  // kFailed outcome
  EXPECT_NE(s1.find(":0:", 0), std::string::npos) << s1;  // kCompleted outcome
}

TEST(ChaosDifferential, WorkerCountInvariance) {
  const std::string sequential = chaos_digest({4, false, 0});
  const std::string one_worker = chaos_digest({4, true, 1});
  const std::string four_workers = chaos_digest({4, true, 4});
  EXPECT_EQ(sequential, one_worker);
  EXPECT_EQ(sequential, four_workers);
}

TEST(ChaosDifferential, RepeatRunsAreBitIdentical) {
  EXPECT_EQ(chaos_digest({2, true, 0}), chaos_digest({2, true, 0}));
}

// ---------------------------------------------------------------------------
// Chaos-off: a disabled controller is invisible to a streaming world.
// ---------------------------------------------------------------------------

/// Fixed two-site pipeline with a delay backend; digests everything the
/// runtime can observe, plus the engine's event count (the strictest
/// perturbation detector short of hashing the heap).
std::string stream_digest(bool attach_disabled_controller) {
  sim::SimEngine engine;
  cloud::CloudProvider provider(engine, cloud::stable_topology(), 7);

  stream::JobGraph g;
  stream::SourceSpec spec;
  spec.records_per_sec = 800.0;
  spec.key_count = 16;
  const auto src = g.add_source("src", Region::kNorthEU, spec);
  const auto map = g.add_operator(
      "double", Region::kNorthEU, stream::make_map("double", [](const stream::Record& r) {
        stream::Record out = r;
        out.value = r.value * 2.0;
        return out;
      }));
  const auto agg = g.add_operator(
      "agg", Region::kNorthUS,
      stream::make_window_aggregate("agg", SimDuration::seconds(1),
                                    stream::AggregateFn::kSum));
  const auto sink = g.add_sink("sink", Region::kNorthUS);
  g.connect(src, map);
  g.connect(map, agg);
  g.connect(agg, sink);

  struct DelayBackend final : stream::TransferBackend {
    sim::SimEngine& engine;
    explicit DelayBackend(sim::SimEngine& e) : engine(e) {}
    void send(Region, Region, Bytes, DoneFn done) override {
      engine.schedule_after(SimDuration::millis(120), [done = std::move(done)] {
        done(stream::SendOutcome{true, SimDuration::millis(120)});
      });
    }
    [[nodiscard]] std::string_view name() const override { return "delay"; }
  };
  DelayBackend backend(engine);

  stream::RuntimeConfig rc;
  rc.seed = 7;
  rc.geo_batch_max_bytes = Bytes::kb(64);
  rc.geo_batch_max_delay = SimDuration::millis(200);
  stream::StreamRuntime runtime(provider, g, backend, rc);
  runtime.start();

  std::unique_ptr<ChaosController> chaos;
  if (attach_disabled_controller) {
    FaultPlan plan;
    plan.link_down(at(2), Region::kNorthEU, Region::kNorthUS, SimDuration::zero(), true)
        .region_outage(at(4), Region::kNorthUS)
        .capacity_squeeze(at(6), Region::kNorthEU, Region::kNorthUS, 0.01);
    chaos = std::make_unique<ChaosController>(engine,
                                              ChaosTargets{&provider.fabric(), nullptr},
                                              std::move(plan), /*enabled=*/false);
  }

  engine.run_until(at(15));

  const auto& ss = runtime.sink_stats(sink);
  std::string digest = "records=" + std::to_string(ss.records) +
                       ";bytes=" + std::to_string(ss.bytes.count()) +
                       ";wan_batches=" + std::to_string(runtime.wan_stats().batches) +
                       ";wan_failures=" + std::to_string(runtime.wan_stats().failures) +
                       ";pending=" + std::to_string(runtime.geo_pending_records()) +
                       ";fired=" + std::to_string(engine.events_fired());
  runtime.stop();
  return digest;
}

TEST(ChaosDifferential, DisabledControllerIsInvisibleToStreaming) {
  const std::string without = stream_digest(false);
  const std::string with = stream_digest(true);
  EXPECT_EQ(without, with);
}

}  // namespace
}  // namespace sage
