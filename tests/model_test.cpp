// Tests for the cost/time model and the tradeoff solvers.
#include "model/cost_model.hpp"
#include "model/tradeoff.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace sage::model {
namespace {

monitor::LinkEstimate link(double mean, double stddev = 0.0, std::size_t samples = 10) {
  return monitor::LinkEstimate{mean, stddev, samples};
}

CostModel make_model(ModelParams params = {}) {
  return CostModel(cloud::PricingModel{}, params);
}

TEST(CostModelTest, SpeedupFollowsGainLaw) {
  ModelParams params;
  params.parallel_gain = 0.5;
  const CostModel model = make_model(params);
  EXPECT_DOUBLE_EQ(model.speedup(1), 1.0);
  EXPECT_DOUBLE_EQ(model.speedup(2), 1.5);
  EXPECT_DOUBLE_EQ(model.speedup(5), 3.0);
}

TEST(CostModelTest, PredictTimeInverseInNodesAndThroughput) {
  const CostModel model = make_model();
  const SimDuration t1 = model.predict_time(Bytes::gb(1), ByteRate::mb_per_sec(5), 1);
  EXPECT_NEAR(t1.to_seconds(), 200.0, 1e-6);
  const SimDuration t4 = model.predict_time(Bytes::gb(1), ByteRate::mb_per_sec(5), 4);
  EXPECT_LT(t4, t1);
  EXPECT_NEAR(t4.to_seconds(), 200.0 / model.speedup(4), 1e-6);
}

TEST(CostModelTest, RiskDiscountsThroughput) {
  ModelParams cautious;
  cautious.risk = 1.0;
  ModelParams bold;
  bold.risk = 0.0;
  const auto est = link(10.0, 3.0);
  EXPECT_DOUBLE_EQ(make_model(bold).effective_throughput(est).to_mb_per_sec(), 10.0);
  EXPECT_DOUBLE_EQ(make_model(cautious).effective_throughput(est).to_mb_per_sec(), 7.0);
}

TEST(CostModelTest, RiskDiscountNeverGoesNegative) {
  ModelParams params;
  params.risk = 5.0;
  const auto rate = make_model(params).effective_throughput(link(10.0, 100.0));
  EXPECT_GT(rate.to_mb_per_sec(), 0.0);
}

TEST(CostModelTest, EgressDominatesCrossRegionCost) {
  const CostModel model = make_model();
  const TransferEstimate e = model.estimate(Bytes::gb(1), link(5.0), 2,
                                            cloud::VmSize::kSmall,
                                            cloud::Region::kNorthEU,
                                            cloud::Region::kNorthUS);
  EXPECT_NEAR(e.egress_cost.to_usd(), 0.12, 1e-6);
  EXPECT_GT(e.vm_cost().count_micro_usd(), 0);
  EXPECT_GT(e.egress_cost, e.vm_cost());  // at 2013 prices, egress dominates
  EXPECT_EQ(e.total_cost(), e.vm_cost() + e.egress_cost);
}

TEST(CostModelTest, IntraRegionTransferHasNoEgress) {
  const CostModel model = make_model();
  const TransferEstimate e =
      model.estimate(Bytes::gb(1), link(10.0), 1, cloud::VmSize::kSmall,
                     cloud::Region::kNorthEU, cloud::Region::kNorthEU);
  EXPECT_TRUE(e.egress_cost.is_zero());
}

TEST(CostModelTest, IntrusivenessScalesVmCost) {
  ModelParams full;
  full.intrusiveness = 1.0;
  ModelParams tenth;
  tenth.intrusiveness = 0.1;
  const auto size = Bytes::gb(1);
  const auto e_full = make_model(full).estimate(size, link(5.0), 2, cloud::VmSize::kSmall,
                                                cloud::Region::kNorthEU,
                                                cloud::Region::kNorthUS);
  const auto e_tenth = make_model(tenth).estimate(size, link(5.0), 2,
                                                  cloud::VmSize::kSmall,
                                                  cloud::Region::kNorthEU,
                                                  cloud::Region::kNorthUS);
  EXPECT_NEAR(e_full.vm_cost().to_usd(), e_tenth.vm_cost().to_usd() * 10.0, 1e-6);
}

TEST(CostModelTest, VmCostSplitRespectsShare) {
  ModelParams params;
  params.vm_cpu_share = 0.25;
  const auto e = make_model(params).estimate(Bytes::gb(1), link(5.0), 3,
                                             cloud::VmSize::kSmall,
                                             cloud::Region::kNorthEU,
                                             cloud::Region::kNorthUS);
  // Integer micro-USD truncation allows a few micro-dollars of slack.
  EXPECT_NEAR(e.vm_cpu_cost.to_usd() * 3.0, e.vm_bandwidth_cost.to_usd(), 1e-5);
}

TEST(CostModelTest, TimeFallsCostRisesWithNodes) {
  const CostModel model = make_model();
  TransferEstimate prev;
  for (int n = 1; n <= 10; ++n) {
    const auto e = model.estimate(Bytes::gb(1), link(5.0), n, cloud::VmSize::kSmall,
                                  cloud::Region::kNorthEU, cloud::Region::kNorthUS);
    if (n > 1) {
      EXPECT_LT(e.time, prev.time);
      EXPECT_GE(e.vm_cost(), prev.vm_cost());
    }
    prev = e;
  }
}

TEST(CostModelTest, RejectsInvalidParams) {
  ModelParams bad;
  bad.parallel_gain = 0.0;
  EXPECT_THROW(make_model(bad), CheckFailure);
  ModelParams bad2;
  bad2.intrusiveness = 1.5;
  EXPECT_THROW(make_model(bad2), CheckFailure);
}

// ---------------------------------------------------------------------------
// Tradeoff solvers.
// ---------------------------------------------------------------------------

struct SolverFixture : public ::testing::Test {
  CostModel model = make_model();
  TradeoffSolver solver{model};
  TradeoffInputs inputs;

  SolverFixture() {
    inputs.size = Bytes::gb(1);
    inputs.link = link(5.0, 0.5);
    inputs.max_nodes = 10;
  }
};

TEST_F(SolverFixture, FrontierHasOneEntryPerNodeCount) {
  const auto frontier = solver.frontier(inputs);
  ASSERT_EQ(frontier.size(), 10u);
  for (int n = 1; n <= 10; ++n) EXPECT_EQ(frontier[static_cast<std::size_t>(n - 1)].nodes, n);
}

TEST_F(SolverFixture, BudgetPicksFastestAffordable) {
  // A generous budget buys max nodes.
  const auto rich = solver.nodes_for_budget(inputs, Money::usd(100));
  EXPECT_EQ(rich.nodes, 10);
  // An impossible budget still returns a runnable single-node plan.
  const auto broke = solver.nodes_for_budget(inputs, Money::usd(0.0001));
  EXPECT_EQ(broke.nodes, 1);
  // A budget between the n=1 and n=10 costs picks something in between
  // with cost under the cap.
  const auto frontier = solver.frontier(inputs);
  const Money mid = (frontier[2].total_cost() + frontier[3].total_cost()) * 0.5;
  const auto picked = solver.nodes_for_budget(inputs, mid);
  EXPECT_LE(picked.total_cost(), mid);
  EXPECT_GE(picked.nodes, 3);
}

TEST_F(SolverFixture, KneeIsInteriorForTypicalInputs) {
  const auto knee = solver.knee(inputs);
  EXPECT_GT(knee.nodes, 1);
  EXPECT_LT(knee.nodes, 10);
}

TEST_F(SolverFixture, ResolveFastestUsesMaxNodes) {
  const auto e = solver.resolve(inputs, Tradeoff::fastest());
  EXPECT_EQ(e.nodes, 10);
}

TEST_F(SolverFixture, ResolveCheapestUsesOneNode) {
  const auto e = solver.resolve(inputs, Tradeoff::cheapest());
  EXPECT_EQ(e.nodes, 1);
}

TEST_F(SolverFixture, ResolveHonoursBudgetCap) {
  const auto frontier = solver.frontier(inputs);
  Tradeoff t = Tradeoff::fastest();
  t.budget = frontier[4].total_cost();  // can afford at most ~5 nodes
  const auto e = solver.resolve(inputs, t);
  EXPECT_LE(e.total_cost(), t.budget);
  EXPECT_EQ(e.nodes, 5);
}

TEST_F(SolverFixture, ResolveHonoursDeadlineCap) {
  const auto frontier = solver.frontier(inputs);
  Tradeoff t = Tradeoff::cheapest();
  t.deadline = frontier[5].time + SimDuration::seconds(1);
  const auto e = solver.resolve(inputs, t);
  EXPECT_LE(e.time, t.deadline);
  // Cheapest within the deadline = exactly the smallest qualifying n.
  EXPECT_EQ(e.nodes, 6);
}

TEST_F(SolverFixture, ResolveInfeasibleFallsBackToBudget) {
  Tradeoff t;
  t.budget = Money::usd(0.0001);
  t.deadline = SimDuration::millis(1);  // nothing satisfies both
  const auto e = solver.resolve(inputs, t);
  EXPECT_EQ(e.nodes, 1);  // degrade to minimal run, honouring money first
}

TEST_F(SolverFixture, LambdaBlendsBetweenExtremes) {
  Tradeoff half;
  half.lambda = 0.5;
  const auto e = solver.resolve(inputs, half);
  EXPECT_GT(e.nodes, 1);
  EXPECT_LT(e.nodes, 10);
}

TEST_F(SolverFixture, ResolveCacheReturnsExactSolverResult) {
  ResolveCache cache;
  const Tradeoff t = Tradeoff::within_budget(Money::usd(5.0));
  const TransferEstimate& memo = cache.resolve(solver, inputs, t, /*epoch=*/3);
  EXPECT_EQ(cache.misses(), 1u);
  const TransferEstimate fresh = solver.resolve(inputs, t);
  EXPECT_EQ(memo.nodes, fresh.nodes);
  EXPECT_EQ(memo.time, fresh.time);
  EXPECT_EQ(memo.total_cost(), fresh.total_cost());
  // Same epoch and inputs: served from the memo.
  (void)cache.resolve(solver, inputs, t, 3);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  // Epoch moved (link estimate may differ): the memo must not answer.
  (void)cache.resolve(solver, inputs, t, 4);
  EXPECT_EQ(cache.misses(), 2u);
  // Different tradeoff under the same epoch is its own entry.
  (void)cache.resolve(solver, inputs, Tradeoff::cheapest(), 4);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(SolverFixture, ResolveCacheRingEvictionKeepsNewestEntries) {
  ResolveCache cache(2);
  const Tradeoff t;
  for (std::uint64_t e = 1; e <= 5; ++e) (void)cache.resolve(solver, inputs, t, e);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 5u);
  (void)cache.resolve(solver, inputs, t, 5);  // newest entry still resident
  EXPECT_EQ(cache.hits(), 1u);
  cache.clear();
  (void)cache.resolve(solver, inputs, t, 5);
  EXPECT_EQ(cache.misses(), 6u);
}

}  // namespace
}  // namespace sage::model
