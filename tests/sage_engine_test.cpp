// Tests for the SAGE engine: deployment, monitored sends, tradeoffs,
// adaptation and decision records.
#include "core/sage.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "test_util.hpp"

namespace sage::core {
namespace {

using cloud::Region;
using sage::testing::NoisyWorld;
using sage::testing::StableWorld;
using sage::testing::run_until;
using stream::SendOutcome;

constexpr Region kNEU = Region::kNorthEU;
constexpr Region kWEU = Region::kWestEU;
constexpr Region kNUS = Region::kNorthUS;
constexpr Region kEUS = Region::kEastUS;

SageConfig quick_config() {
  SageConfig config;
  config.regions = {kNEU, kWEU, kEUS, kNUS};
  config.helpers_per_region = 4;
  config.monitoring.probe_interval = SimDuration::minutes(1);
  return config;
}

struct SageFixture : public ::testing::Test {
  StableWorld world;

  std::unique_ptr<SageEngine> deployed(SageConfig config = quick_config(),
                                       SimDuration warmup = SimDuration::minutes(15)) {
    auto engine = std::make_unique<SageEngine>(*world.provider, config);
    engine->deploy();
    world.engine.run_until(world.engine.now() + warmup);
    return engine;
  }

  SendOutcome send(SageEngine& engine, Bytes size, Region src = kNEU,
                   Region dst = kNUS) {
    SendOutcome out{};
    bool done = false;
    engine.send(src, dst, size, [&](const SendOutcome& o) {
      out = o;
      done = true;
    });
    EXPECT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(12)));
    return out;
  }
};

TEST_F(SageFixture, DeployStartsMonitoringAllPairs) {
  auto engine = deployed();
  const auto matrix = engine->monitoring().snapshot();
  for (Region a : {kNEU, kWEU, kEUS, kNUS}) {
    for (Region b : {kNEU, kWEU, kEUS, kNUS}) {
      if (a == b) continue;
      EXPECT_TRUE(matrix.at(a, b).ready());
    }
  }
}

TEST_F(SageFixture, SendMovesDataAndRecordsDecision) {
  auto engine = deployed();
  const SendOutcome o = send(*engine, Bytes::mb(50));
  EXPECT_TRUE(o.ok);
  ASSERT_EQ(engine->history().size(), 1u);
  const SendRecord& rec = engine->history()[0];
  EXPECT_TRUE(rec.ok);
  EXPECT_EQ(rec.size, Bytes::mb(50));
  EXPECT_TRUE(rec.estimate.has_value());
  EXPECT_GE(rec.lanes_used, 1);
  EXPECT_EQ(rec.stats.chunks_delivered, rec.stats.chunks_total);
}

TEST_F(SageFixture, ColdStartFallsBackToDirect) {
  SageConfig config = quick_config();
  auto engine = std::make_unique<SageEngine>(*world.provider, config);
  engine->deploy();
  // No warmup at all: the map is empty; SAGE must still deliver.
  const SendOutcome o = send(*engine, Bytes::mb(5));
  EXPECT_TRUE(o.ok);
  ASSERT_EQ(engine->history().size(), 1u);
  EXPECT_FALSE(engine->history()[0].estimate.has_value());
  EXPECT_EQ(engine->history()[0].lanes_used, 1);
}

TEST_F(SageFixture, FastTradeoffUsesMoreLanesThanCheap) {
  auto engine = deployed();
  model::Tradeoff fast = model::Tradeoff::fastest();
  model::Tradeoff cheap = model::Tradeoff::cheapest();

  SendOutcome out_fast{};
  bool done_fast = false;
  engine->send_with(fast, kNEU, kNUS, Bytes::mb(100), [&](const SendOutcome& o) {
    out_fast = o;
    done_fast = true;
  });
  ASSERT_TRUE(run_until(world.engine, [&] { return done_fast; }, SimDuration::hours(4)));

  SendOutcome out_cheap{};
  bool done_cheap = false;
  engine->send_with(cheap, kNEU, kNUS, Bytes::mb(100), [&](const SendOutcome& o) {
    out_cheap = o;
    done_cheap = true;
  });
  ASSERT_TRUE(run_until(world.engine, [&] { return done_cheap; }, SimDuration::hours(4)));

  ASSERT_TRUE(out_fast.ok && out_cheap.ok);
  const auto& history = engine->history();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_GT(history[0].lanes_used, history[1].lanes_used);
  EXPECT_LT(out_fast.elapsed, out_cheap.elapsed);
}

TEST_F(SageFixture, BudgetCapLimitsNodes) {
  auto engine = deployed();
  // Derive a budget that separates the frontier: affordable at n=2, too
  // expensive from n=3 up (egress dominates, so the window is narrow and
  // must be computed from the model, not guessed).
  model::TradeoffInputs inputs;
  inputs.size = Bytes::gb(1);
  inputs.link = engine->monitoring().estimate(kNEU, kNUS);
  inputs.src = kNEU;
  inputs.dst = kNUS;
  inputs.max_nodes = 1 + engine->config().helpers_per_region;
  const model::TradeoffSolver solver(engine->cost_model());
  const auto frontier = solver.frontier(inputs);
  ASSERT_GE(frontier.size(), 3u);
  const Money budget = (frontier[1].total_cost() + frontier[2].total_cost()) * 0.5;

  model::Tradeoff tight = model::Tradeoff::within_budget(budget);
  SendOutcome out{};
  bool done = false;
  engine->send_with(tight, kNEU, kNUS, Bytes::gb(1), [&](const SendOutcome& o) {
    out = o;
    done = true;
  });
  ASSERT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(12)));
  ASSERT_TRUE(out.ok);
  const SendRecord& rec = engine->history()[0];
  ASSERT_TRUE(rec.estimate.has_value());
  EXPECT_LE(rec.estimate->total_cost(), budget);
  EXPECT_LE(rec.estimate->nodes, 2);
}

TEST_F(SageFixture, PredictionMatchesAchievedOnStableFabric) {
  auto engine = deployed();
  const SendOutcome o = send(*engine, Bytes::mb(200));
  ASSERT_TRUE(o.ok);
  const SendRecord& rec = engine->history()[0];
  ASSERT_TRUE(rec.estimate.has_value());
  // On a noise-free fabric the model should land within a factor ~2 of the
  // achieved time (the model is deliberately simple; 10-15% error is the
  // calibrated expectation on the real trace, see Fig 3).
  const double predicted = rec.estimate->time.to_seconds();
  const double achieved = rec.elapsed.to_seconds();
  EXPECT_LT(std::abs(predicted - achieved) / achieved, 1.0)
      << "predicted " << predicted << "s achieved " << achieved << "s";
}

TEST_F(SageFixture, AchievedRateFeedsBackIntoMap) {
  auto engine = deployed();
  const auto before = engine->monitoring().estimate(kNEU, kNUS).samples;
  (void)send(*engine, Bytes::mb(50));
  const auto after = engine->monitoring().estimate(kNEU, kNUS).samples;
  EXPECT_GT(after, before);
}

TEST_F(SageFixture, ShutdownReleasesEverything) {
  auto engine = deployed();
  (void)send(*engine, Bytes::mb(10));
  EXPECT_GT(world.provider->active_vm_count(), 0u);
  engine->shutdown();
  EXPECT_EQ(world.provider->active_vm_count(), 0u);
}

TEST_F(SageFixture, SendBeforeDeployThrows) {
  SageEngine engine(*world.provider, quick_config());
  EXPECT_THROW(engine.send(kNEU, kNUS, Bytes::mb(1), [](const SendOutcome&) {}),
               CheckFailure);
}

TEST_F(SageFixture, ConcurrentSendsAllComplete) {
  auto engine = deployed();
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    engine->send(kNEU, kNUS, Bytes::mb(10), [&](const SendOutcome& o) {
      EXPECT_TRUE(o.ok);
      ++done;
    });
  }
  ASSERT_TRUE(run_until(world.engine, [&] { return done == 4; }, SimDuration::hours(6)));
  EXPECT_EQ(engine->history().size(), 4u);
}

TEST(SageAdaptationTest, ReplansWhenMapShiftsMidTransfer) {
  // Deterministic adaptation check: mid-transfer, the monitoring map
  // learns that a relay route got dramatically better; the decision
  // manager must swap lane sets in place. LastSample estimation makes the
  // map shift immediate (WSI would phase it in over many samples).
  StableWorld world;
  SageConfig config;
  config.regions = {kNEU, kEUS, kNUS};
  config.helpers_per_region = 3;
  config.monitoring.kind = monitor::EstimatorKind::kLastSample;
  config.monitoring.probe_interval = SimDuration::minutes(1);
  config.adapt_interval = SimDuration::seconds(2);
  config.replan_threshold = 0.10;
  SageEngine engine(*world.provider, config);
  engine.deploy();
  world.engine.run_until(world.engine.now() + SimDuration::minutes(10));

  bool done = false;
  engine.send(kNEU, kNUS, Bytes::mb(200), [&](const SendOutcome& o) {
    EXPECT_TRUE(o.ok);
    done = true;
  });
  world.engine.schedule_after(SimDuration::seconds(5), [&] {
    engine.monitoring().report_transfer_observation(kNEU, kEUS,
                                                    ByteRate::mb_per_sec(40.0));
    engine.monitoring().report_transfer_observation(kEUS, kNUS,
                                                    ByteRate::mb_per_sec(40.0));
  });
  ASSERT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(6)));
  ASSERT_EQ(engine.history().size(), 1u);
  EXPECT_GT(engine.history()[0].replans, 0);
}

TEST_F(SageFixture, ReplanSweepSkipsTransfersWithUnchangedEpoch) {
  auto engine = deployed();
  bool done = false;
  engine->send(kNEU, kNUS, Bytes::gb(2), [&](const SendOutcome&) { done = true; });
  engine->monitoring().stop();  // freeze the sample epoch
  const std::uint64_t skipped_before = engine->replans_skipped();
  // No sample landed since the send planned against the map: the sweep
  // must skip the transfer on an epoch compare, not re-run the planner.
  EXPECT_EQ(engine->replan_sweep(), 0u);
  EXPECT_EQ(engine->replan_sweep(), 0u);
  EXPECT_EQ(engine->replans_skipped(), skipped_before + 2);
  // A fresh sample moves the epoch; the next sweep re-evaluates.
  engine->monitoring().report_transfer_observation(kNEU, kNUS,
                                                   ByteRate::mb_per_sec(12.0));
  EXPECT_EQ(engine->replan_sweep(), 1u);
  EXPECT_EQ(engine->replans_skipped(), skipped_before + 2);
  ASSERT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(12)));
}

TEST_F(SageFixture, ControlPlaneMemosCollapseIdenticalDecisions) {
  auto engine = deployed();
  engine->monitoring().stop();  // freeze the epoch across the batch
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    engine->send(kNEU, kNUS, Bytes::mb(10), [&](const SendOutcome& o) {
      EXPECT_TRUE(o.ok);
      ++done;
    });
  }
  // One real solver/planner run; the other three sends hit the memos.
  EXPECT_EQ(engine->resolve_cache().misses(), 1u);
  EXPECT_EQ(engine->resolve_cache().hits(), 3u);
  EXPECT_EQ(engine->plan_cache().misses(), 1u);
  EXPECT_EQ(engine->plan_cache().hits(), 3u);
  ASSERT_TRUE(run_until(world.engine, [&] { return done == 4; }, SimDuration::hours(6)));
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(engine->history()[i].lanes_used, engine->history()[0].lanes_used);
    ASSERT_TRUE(engine->history()[i].estimate.has_value());
    EXPECT_EQ(engine->history()[i].estimate->nodes, engine->history()[0].estimate->nodes);
  }
}

// A pinned two-send scenario along the fig6 cost/time axis: a 24 MB send
// at the default tradeoff, then a 12 MB send under a $0.05 budget, on the
// stable topology at seed 1234 between NEU and NUS. Every field of both
// decision records is asserted exactly, so a change to the planner, the
// solver, the transfer engine or the fabric's bandwidth arithmetic that
// moves either send fails here.
TEST(SagePinnedScenario, CostTimeSendsMatchRecordedDecisions) {
  StableWorld world(1234);
  SageConfig config;
  config.regions = {kNEU, kNUS};
  config.monitoring.probe_interval = SimDuration::minutes(1);
  SageEngine engine(*world.provider, config);
  engine.deploy();
  world.engine.run_until(world.engine.now() + SimDuration::minutes(10));

  int done = 0;
  engine.send(kNEU, kNUS, Bytes::mb(24), [&](const SendOutcome& o) {
    EXPECT_TRUE(o.ok);
    ++done;
  });
  ASSERT_TRUE(run_until(world.engine, [&] { return done == 1; }));
  model::Tradeoff cheap;
  cheap.budget = Money::usd(0.05);
  engine.send_with(cheap, kNEU, kNUS, Bytes::mb(12), [&](const SendOutcome& o) {
    EXPECT_TRUE(o.ok);
    ++done;
  });
  ASSERT_TRUE(run_until(world.engine, [&] { return done == 2; }));

  struct Pinned {
    Bytes size;
    int estimate_nodes;
    std::int64_t estimate_us;
    std::int64_t estimate_cpu_micro_usd;
    std::int64_t estimate_bandwidth_micro_usd;
    std::int64_t estimate_egress_micro_usd;
    int lanes;
    std::int64_t elapsed_us;
    int chunks;
  };
  const Pinned pinned[] = {
      {Bytes::mb(24), 5, 2'455'559, 100, 100, 2'880, 5, 3'993'080, 6},
      {Bytes::mb(12), 5, 1'290'180, 52, 53, 1'440, 5, 2'437'610, 3},
  };
  ASSERT_EQ(engine.history().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    const SendRecord& rec = engine.history()[i];
    const Pinned& want = pinned[i];
    EXPECT_EQ(rec.src, kNEU);
    EXPECT_EQ(rec.dst, kNUS);
    EXPECT_EQ(rec.size, want.size);
    ASSERT_TRUE(rec.estimate.has_value());
    EXPECT_EQ(rec.estimate->nodes, want.estimate_nodes);
    EXPECT_EQ(rec.estimate->time.count_micros(), want.estimate_us);
    EXPECT_EQ(rec.estimate->vm_cpu_cost.count_micro_usd(), want.estimate_cpu_micro_usd);
    EXPECT_EQ(rec.estimate->vm_bandwidth_cost.count_micro_usd(),
              want.estimate_bandwidth_micro_usd);
    EXPECT_EQ(rec.estimate->egress_cost.count_micro_usd(), want.estimate_egress_micro_usd);
    EXPECT_EQ(rec.lanes_used, want.lanes);
    EXPECT_EQ(rec.replans, 0);
    EXPECT_TRUE(rec.ok);
    EXPECT_EQ(rec.elapsed.count_micros(), want.elapsed_us);
    EXPECT_EQ(rec.stats.chunks_total, want.chunks);
    EXPECT_EQ(rec.stats.chunks_delivered, want.chunks);
    EXPECT_EQ(rec.stats.retransmissions, 0);
    EXPECT_EQ(rec.stats.duplicates_dropped, 0);
    EXPECT_EQ(rec.stats.hop_failures, 0);
  }
}

}  // namespace
}  // namespace sage::core
