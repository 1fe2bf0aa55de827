// Differential determinism tests for full deploy_sage scenarios on the
// region-sharded engine (core::ShardedSage).
//
// The contract under test is DESIGN.md §16: a complete SAGE control plane —
// monitoring probes, tradeoff resolution, multipath planning, adaptive
// chunked transfers, self-healing — partitioned across S engine lanes by
// source-region ownership produces *byte-identical* scenario results for
// S in {1, 2, 4}, for inline lanes and 1/4 lane-driving threads,
// and with a chaos schedule (region outage landing mid-transfer, capacity
// squeeze, estimator poisoning) applied to every lane. The digest covers
// every control-plane observable: per-send outcomes in issue order, the
// owning lanes' SendRecord decisions (estimate, lanes, replans, transfer
// stats), the per-lane sample epochs (which must be in lock-step — the
// invariant the epoch-keyed plan/resolve caches lean on), and the chaos
// fault/revert counts.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/chaos.hpp"
#include "cloud/topology.hpp"
#include "common/rng.hpp"
#include "core/sharded_sage.hpp"
#include "model/tradeoff.hpp"

namespace sage {
namespace {

using chaos::ChaosController;
using chaos::ChaosTargets;
using chaos::FaultPlan;
using cloud::Region;

struct Knobs {
  std::size_t shards;
  bool parallel;
  std::size_t max_workers;
  bool with_chaos;
  int sends = 10;
  SimDuration send_gap = SimDuration::seconds(15);
  /// 0 keeps the canonical schedule (pair 3i, payload class i mod 4); any
  /// other value draws each send's pair and payload class from this seed.
  std::uint64_t order_seed = 0;
};

/// Runs the canonical scenario and digests everything the control plane
/// decided and observed.
std::string scenario_digest(const Knobs& knobs) {
  const auto topo =
      std::make_shared<const cloud::Topology>(cloud::stable_topology());
  core::SageConfig config;
  config.regions = topo->regions();
  config.monitoring.probe_interval = SimDuration::minutes(1);
  core::ShardedSage::Options opts;
  opts.shards = knobs.shards;
  opts.parallel = knobs.parallel;
  opts.max_workers = knobs.max_workers;
  core::ShardedSage sage(topo, 77, config, opts);
  sage.deploy();
  sage.run_for(SimDuration::minutes(10));  // warm the monitoring map
  const SimTime t0 = sage.engine().shard(0).now();

  // Chaos through the sharded controller: every lane gets its fabric and
  // monitoring service as targets, every event fires at the same absolute
  // sim time on every lane. The outage is timed to land while transfers
  // sourced in the failed region are in flight.
  std::unique_ptr<ChaosController> chaos;
  if (knobs.with_chaos) {
    FaultPlan plan;
    plan.region_outage(t0 + SimDuration::seconds(40), Region::kWestEU,
                       SimDuration::minutes(3));
    plan.capacity_squeeze(t0 + SimDuration::minutes(2), Region::kNorthEU,
                          Region::kNorthUS, 0.5, SimDuration::minutes(4));
    plan.poison_estimator(t0 + SimDuration::minutes(3), Region::kNorthEU,
                          Region::kNorthUS, 750.0, 2);
    std::vector<ChaosTargets> targets;
    for (std::size_t l = 0; l < sage.lane_count(); ++l) {
      targets.push_back(
          ChaosTargets{&sage.provider(l).fabric(), &sage.lane(l).monitoring()});
    }
    chaos = std::make_unique<ChaosController>(sage.engine(), std::move(targets),
                                              std::move(plan), /*enabled=*/true);
  }

  // A mixed schedule of sends: several source regions (so multiple lanes
  // own work at S=4), one sourced in the outage region mid-fault, staggered
  // starts so transfers overlap. Completion lands on the owning lane into
  // the send's own slot; slots are only read between run_for windows.
  std::vector<std::pair<Region, Region>> pairs;
  for (const cloud::Topology::Edge& e : topo->edges()) {
    if (e.src != e.dst) pairs.emplace_back(e.src, e.dst);
  }
  struct SendProbe {
    int done = 0;
    bool ok = false;
    double elapsed = 0.0;
  };
  const int sends = knobs.sends;
  std::vector<SendProbe> probes(static_cast<std::size_t>(sends));
  Rng order(knobs.order_seed);
  for (int i = 0; i < sends; ++i) {
    std::size_t pair = static_cast<std::size_t>(i * 3) % pairs.size();
    int payload_class = i % 4;
    if (knobs.order_seed != 0) {
      pair = static_cast<std::size_t>(
          order.uniform_int(0, static_cast<std::int64_t>(pairs.size()) - 1));
      payload_class = static_cast<int>(order.uniform_int(0, 3));
    }
    const auto [a, b] = pairs[pair];
    const std::size_t l = sage.lane_of(a);
    const Bytes payload = Bytes::mb(96 + payload_class * 32);
    SendProbe* probe = &probes[static_cast<std::size_t>(i)];
    core::ShardedSage* plane = &sage;
    sage.engine().shard(l).schedule_after(
        knobs.send_gap * i, [plane, probe, a, b, payload] {
          plane->send(a, b, payload, model::Tradeoff::fastest(),
                      [probe](const stream::SendOutcome& o) {
                        ++probe->done;
                        probe->ok = o.ok;
                        probe->elapsed = o.elapsed.to_seconds();
                      });
        });
  }

  const SimDuration quantum = SimDuration::seconds(30);
  SimDuration waited = SimDuration::zero();
  auto all_done = [&] {
    for (const SendProbe& p : probes) {
      if (p.done == 0) return false;
    }
    return true;
  };
  while (!all_done() && waited < SimDuration::hours(3)) {
    sage.run_for(quantum);
    waited = waited + quantum;
  }

  std::string digest;
  char buf[128];
  for (int i = 0; i < sends; ++i) {
    const SendProbe& p = probes[static_cast<std::size_t>(i)];
    std::snprintf(buf, sizeof(buf), "s%d:%d:%d:%.9f;", i, p.done, p.ok ? 1 : 0,
                  p.elapsed);
    digest += buf;
  }
  // Owning-lane decision records, aggregated over lanes (each send's record
  // lives on exactly one lane; the multiset is S-invariant, and summing
  // keeps the digest independent of which lane holds which record).
  std::uint64_t chunks = 0, retrans = 0, dups = 0, hop_failures = 0;
  int oks = 0, lanes_used = 0, replans = 0, est_nodes = 0, records = 0;
  double elapsed_sum = 0.0, predicted = 0.0;
  for (std::size_t l = 0; l < sage.lane_count(); ++l) {
    for (const core::SendRecord& rec : sage.lane(l).history()) {
      ++records;
      if (rec.ok) ++oks;
      elapsed_sum += rec.elapsed.to_seconds();
      lanes_used += rec.lanes_used;
      replans += rec.replans;
      chunks += static_cast<std::uint64_t>(rec.stats.chunks_delivered);
      retrans += static_cast<std::uint64_t>(rec.stats.retransmissions);
      dups += static_cast<std::uint64_t>(rec.stats.duplicates_dropped);
      hop_failures += static_cast<std::uint64_t>(rec.stats.hop_failures);
      if (rec.estimate) {
        est_nodes += rec.estimate->nodes;
        predicted += rec.estimate->time.to_seconds();
      }
    }
  }
  std::snprintf(buf, sizeof(buf),
                "rec=%d;ok=%d;el=%.9f;lanes=%d;replans=%d;nodes=%d;pred=%.9f;",
                records, oks, elapsed_sum, lanes_used, replans, est_nodes,
                predicted);
  digest += buf;
  digest += "chunks=" + std::to_string(chunks) + ";retrans=" +
            std::to_string(retrans) + ";dups=" + std::to_string(dups) +
            ";hopfail=" + std::to_string(hop_failures) + ";";
  digest += "epoch=" + std::to_string(sage.lane(0).monitoring().sample_epoch()) +
            ";lockstep=" + std::to_string(sage.epochs_consistent() ? 1 : 0) + ";";
  if (chaos) {
    digest += "faults=" +
              std::to_string(chaos->faults_applied() / sage.lane_count()) +
              ";reverts=" +
              std::to_string(chaos->reverts_applied() / sage.lane_count());
  }
  return digest;
}

TEST(ShardedScenario, ShardCountInvarianceWithChaos) {
  const std::string s1 = scenario_digest({1, true, 0, true});
  const std::string s2 = scenario_digest({2, true, 0, true});
  const std::string s4 = scenario_digest({4, true, 0, true});
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1, s4);
  // The scenario is non-trivial: every send completed, the epochs stayed in
  // lock-step, and the schedule actually fired.
  EXPECT_NE(s1.find("lockstep=1"), std::string::npos) << s1;
  EXPECT_EQ(s1.find(":0:0:"), std::string::npos) << s1;  // no unfinished send
  EXPECT_NE(s1.find("faults="), std::string::npos) << s1;
}

TEST(ShardedScenario, WorkerCountInvariance) {
  const std::string sequential = scenario_digest({4, false, 0, true});
  const std::string one_worker = scenario_digest({4, true, 1, true});
  const std::string four_workers = scenario_digest({4, true, 4, true});
  EXPECT_EQ(sequential, one_worker);
  EXPECT_EQ(sequential, four_workers);
}

TEST(ShardedScenario, ShardCountInvarianceHealthy) {
  const std::string s1 = scenario_digest({1, true, 0, false});
  const std::string s4 = scenario_digest({4, true, 0, false});
  EXPECT_EQ(s1, s4);
  // The chaos run differs from the healthy one (the schedule had teeth).
  EXPECT_NE(s1, scenario_digest({1, true, 0, true}));
}

TEST(ShardedScenario, RepeatRunsAreBitIdentical) {
  EXPECT_EQ(scenario_digest({2, true, 0, true}), scenario_digest({2, true, 0, true}));
}

TEST(ShardedScenario, DenseSendSweepIsShardCountInvariant) {
  // Twelve seeded schedules of 40 sends half a second apart, so up to
  // dozens of transfers share links at once, each with and without the
  // chaos schedule. Every schedule must digest identically at S = 1, 2, 4.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const bool chaos : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + (chaos ? " with chaos" : " healthy"));
      const auto digest = [&](std::size_t shards) {
        return scenario_digest({shards, false, 0, chaos, 40, SimDuration::millis(500), seed});
      };
      const std::string s1 = digest(1);
      EXPECT_EQ(s1.find(":0:0:"), std::string::npos) << s1;  // no unfinished send
      EXPECT_NE(s1.find("lockstep=1"), std::string::npos) << s1;
      EXPECT_EQ(s1, digest(2));
      EXPECT_EQ(s1, digest(4));
    }
  }
}

TEST(ShardedScenario, EpochsAdvanceInLockStep) {
  const auto topo =
      std::make_shared<const cloud::Topology>(cloud::stable_topology());
  core::SageConfig config;
  config.regions = topo->regions();
  config.monitoring.probe_interval = SimDuration::minutes(1);
  core::ShardedSage::Options opts;
  opts.shards = 4;
  core::ShardedSage sage(topo, 5, config, opts);
  sage.deploy();
  EXPECT_GE(sage.report_delay(), sage.plan().lookahead);
  std::uint64_t last = 0;
  for (int i = 0; i < 8; ++i) {
    sage.run_for(SimDuration::minutes(2));
    ASSERT_TRUE(sage.epochs_consistent()) << "window " << i;
    const std::uint64_t now = sage.lane(0).monitoring().sample_epoch();
    EXPECT_GE(now, last);
    last = now;
  }
  EXPECT_GT(last, 0u) << "probes never produced samples";
}

}  // namespace
}  // namespace sage
