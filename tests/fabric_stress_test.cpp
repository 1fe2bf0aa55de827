// Fabric stress test: a few hundred concurrent flows across all six regions
// with staggered starts, mid-flight cancellations and node failures. This
// exercises the incremental-settlement bookkeeping (per-link flow lists,
// component collection, completion hysteresis) far harder than the unit
// tests: every invariant here held on the original full-resettle fabric and
// must keep holding on the incremental one.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cloud/fabric.hpp"
#include "cloud/topology.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "simcore/engine.hpp"

namespace sage::cloud {
namespace {

constexpr int kFlows = 240;
constexpr int kNodesPerRegion = 5;

// One completed scenario: per-flow results plus the fabric's final egress
// meters, everything spelled in exact integer units so two runs can be
// compared for strict equality.
struct ScenarioLog {
  // (flow id, outcome, transferred bytes, finished micros)
  std::vector<std::tuple<FlowId, int, std::int64_t, std::int64_t>> results;
  std::array<std::int64_t, kRegionCount> egress{};

  bool operator==(const ScenarioLog&) const = default;

  /// Order-sensitive hash of every logged integer.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = kFnvOffset;
    const auto add = [&h](std::int64_t v) {
      h = hash_combine(h, hash_u64(static_cast<std::uint64_t>(v)));
    };
    for (const auto& [id, outcome, transferred, finished] : results) {
      add(static_cast<std::int64_t>(id));
      add(outcome);
      add(transferred);
      add(finished);
    }
    for (std::int64_t e : egress) add(e);
    return h;
  }
};

ScenarioLog run_scenario(std::uint64_t seed) {
  sim::SimEngine engine;
  Fabric fabric(engine, default_topology(), seed);

  std::vector<NodeId> nodes;
  for (Region r : kAllRegions) {
    for (int i = 0; i < kNodesPerRegion; ++i) {
      nodes.push_back(fabric.add_node(r, ByteRate::megabits_per_sec(600),
                                      ByteRate::megabits_per_sec(600)));
    }
  }

  ScenarioLog log;
  std::unordered_map<FlowId, int> callbacks;
  std::unordered_map<FlowId, NodeId> flow_src;
  std::unordered_map<FlowId, NodeId> flow_dst;
  std::vector<FlowId> started;

  // The scenario script is derived from its own Rng up front, so both runs
  // schedule byte-identical start/cancel/failure sequences.
  Rng rng(seed * 1000003 + 17);
  for (int i = 0; i < kFlows; ++i) {
    const auto src = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1));
    std::size_t dst = src;
    while (dst == src) {
      dst = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1));
    }
    const auto at = SimDuration::millis(rng.uniform_int(0, 90'000));
    const auto size = Bytes::mb(rng.uniform_int(5, 400));
    engine.schedule_at(SimTime::epoch() + at, [&, src, dst, size] {
      const FlowId id = fabric.start_flow(
          nodes[src], nodes[dst], size, {}, [&](const FlowResult& r) {
            ++callbacks[r.id];
            log.results.emplace_back(r.id, static_cast<int>(r.outcome),
                                     r.transferred.count(), r.finished.count_micros());
          });
      flow_src[id] = nodes[src];
      flow_dst[id] = nodes[dst];
      started.push_back(id);
      // Roughly a fifth of the flows get cancelled mid-flight.
      if (rng.chance(0.2)) {
        const auto delay = SimDuration::millis(rng.uniform_int(200, 30'000));
        engine.schedule_after(delay, [&, id] { fabric.cancel_flow(id); });
      }
    });
  }
  // A few nodes fail mid-run and recover later, aborting their flows.
  for (int i = 0; i < 4; ++i) {
    const auto victim = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1));
    const auto at = SimDuration::millis(rng.uniform_int(20'000, 70'000));
    const auto down_for = SimDuration::millis(rng.uniform_int(5'000, 20'000));
    engine.schedule_at(SimTime::epoch() + at,
                       [&, victim] { fabric.set_node_failed(nodes[victim], true); });
    engine.schedule_at(SimTime::epoch() + at + down_for,
                       [&, victim] { fabric.set_node_failed(nodes[victim], false); });
  }

  engine.run();

  // Every started flow got exactly one completion callback.
  EXPECT_EQ(started.size(), static_cast<std::size_t>(kFlows));
  EXPECT_EQ(log.results.size(), static_cast<std::size_t>(kFlows));
  for (FlowId id : started) {
    auto it = callbacks.find(id);
    EXPECT_NE(it, callbacks.end()) << "flow " << id << " lost its completion";
    if (it != callbacks.end()) {
      EXPECT_EQ(it->second, 1) << "flow " << id << " completed more than once";
    }
  }
  EXPECT_EQ(fabric.active_flow_count(), 0u);

  // Byte conservation: the egress meters must equal the cross-region bytes
  // the flows report, up to the <=1-byte completion forgiveness per flow.
  std::array<std::int64_t, kRegionCount> expected{};
  for (const auto& [id, outcome, transferred, finished] : log.results) {
    const Region ra = fabric.node_region(flow_src.at(id));
    const Region rb = fabric.node_region(flow_dst.at(id));
    if (ra != rb) expected[region_index(ra)] += transferred;
  }
  for (Region r : kAllRegions) {
    const std::int64_t metered = fabric.egress_from(r).count();
    log.egress[region_index(r)] = metered;
    EXPECT_NEAR(static_cast<double>(metered),
                static_cast<double>(expected[region_index(r)]),
                static_cast<double>(kFlows));
  }
  return log;
}

TEST(FabricStressTest, ConservationAndExactlyOnceUnderChurn) {
  (void)run_scenario(11);
}

TEST(FabricStressTest, TwoRunsWithSameSeedAreIdentical) {
  const ScenarioLog a = run_scenario(23);
  const ScenarioLog b = run_scenario(23);
  EXPECT_EQ(a, b);
}

// The seed-23 log (noisy topology, churn, cancels, node failures) pinned as
// a digest: a fabric change that moves any completion time, outcome, byte
// count or egress meter fails here. The pin assumes glibc's libm, since
// capacity noise and the scenario script go through exp/log. Recompute it
// only for an intended change of simulated behaviour:
//
//   ./build/tests/fabric_stress_test --gtest_filter='*Pinned*'
//
// prints the new value in the failure message.
TEST(FabricStressTest, LogMatchesPinnedDigest) {
  constexpr std::uint64_t kPinned = 0x47dc89851815d066ULL;
  const ScenarioLog log = run_scenario(23);
  EXPECT_EQ(log.results.size(), static_cast<std::size_t>(kFlows));
  EXPECT_EQ(log.digest(), kPinned) << std::hex << "digest 0x" << log.digest();
}

}  // namespace
}  // namespace sage::cloud
