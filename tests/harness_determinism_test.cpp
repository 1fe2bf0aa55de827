// The harness determinism claim, end to end: a sweep of real simulation
// worlds (noisy topology, multi-lane GeoTransfers) must render the exact
// same table — byte for byte — whether it ran on 1 thread or on 4. This is
// the same property the CI smoke job checks on the full figure benches.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/sage.hpp"
#include "harness/scenario.hpp"
#include "net/transfer.hpp"
#include "test_util.hpp"

namespace sage {
namespace {

struct Cell {
  int vms = 0;
  std::uint64_t seed = 0;
};

double transfer_seconds(const Cell& cell) {
  testing::NoisyWorld world(cell.seed);
  auto& provider = *world.provider;
  const auto src = provider.provision(cloud::Region::kNorthEU, cloud::VmSize::kSmall);
  const auto dst = provider.provision(cloud::Region::kNorthUS, cloud::VmSize::kSmall);
  std::vector<net::Lane> lanes = net::direct_lane(src.id, dst.id);
  for (int i = 1; i < cell.vms; ++i) {
    const auto helper = provider.provision(cloud::Region::kNorthEU, cloud::VmSize::kSmall);
    lanes.push_back(net::Lane{{src.id, helper.id, dst.id}});
  }
  net::TransferConfig config;
  config.streams_per_hop = 1;
  double seconds = 0.0;
  bool done = false;
  net::GeoTransfer transfer(provider, Bytes::mb(64), lanes, config,
                            [&](const net::TransferResult& r) {
                              seconds = r.elapsed().to_seconds();
                              done = true;
                            });
  transfer.start();
  EXPECT_TRUE(testing::run_until(world.engine, [&] { return done; }));
  return seconds;
}

std::string render_sweep(int threads) {
  std::vector<Cell> grid;
  for (int vms = 1; vms <= 3; ++vms) {
    for (std::uint64_t seed : {11u, 12u}) grid.push_back({vms, seed});
  }
  harness::ScenarioRunner runner(threads);
  const auto times = runner.sweep("transfers", grid, transfer_seconds);

  TextTable t({"VMs", "Seed", "Time s"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    t.add_row({std::to_string(grid[i].vms), std::to_string(grid[i].seed),
               TextTable::num(times[i], 3)});
  }
  return t.render();
}

TEST(HarnessDeterminism, TableIsByteIdenticalAcrossThreadCounts) {
  const std::string one = render_sweep(1);
  const std::string four = render_sweep(4);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, four);
}

TEST(HarnessDeterminism, RepeatedParallelRunsAreIdentical) {
  EXPECT_EQ(render_sweep(4), render_sweep(4));
}

// Full SAGE control loop (monitoring, tradeoff resolution, planning,
// adaptive replanning) rendered as a scenario table. Each world owns its
// control-plane caches, so the rendered bytes must not depend on the
// harness thread count.
struct SageCell {
  std::uint64_t seed = 0;
  int sends = 0;
};

std::string render_sage_sweep(int threads) {
  std::vector<SageCell> grid;
  for (std::uint64_t seed : {21u, 22u}) {
    for (int sends : {1, 3}) grid.push_back({seed, sends});
  }
  harness::ScenarioRunner runner(threads);
  const auto times = runner.sweep("sage-ctrl", grid, [](const SageCell& cell) {
    testing::NoisyWorld world(cell.seed);
    core::SageConfig config;
    config.regions = {cloud::Region::kNorthEU, cloud::Region::kEastUS,
                      cloud::Region::kNorthUS};
    config.helpers_per_region = 3;
    config.monitoring.probe_interval = SimDuration::minutes(1);
    config.adapt_interval = SimDuration::seconds(5);
    core::SageEngine engine(*world.provider, config);
    engine.deploy();
    world.engine.run_until(world.engine.now() + SimDuration::minutes(10));
    int done = 0;
    double total = 0.0;
    for (int i = 0; i < cell.sends; ++i) {
      engine.send(cloud::Region::kNorthEU, cloud::Region::kNorthUS, Bytes::mb(50),
                  [&](const stream::SendOutcome& o) {
                    EXPECT_TRUE(o.ok);
                    total += o.elapsed.to_seconds();
                    ++done;
                  });
    }
    EXPECT_TRUE(
        testing::run_until(world.engine, [&] { return done == cell.sends; }));
    return total;
  });

  TextTable t({"Seed", "Sends", "Total s"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    t.add_row({std::to_string(grid[i].seed), std::to_string(grid[i].sends),
               TextTable::num(times[i], 3)});
  }
  return t.render();
}

TEST(ControlCacheDifferential, CachedSweepIsThreadCountInvariant) {
  const std::string one = render_sage_sweep(1);
  const std::string four = render_sage_sweep(4);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, four);
}

// A --json task record's `shards` is what the task reported running at,
// not the bench's --shards flag: a task that reports nothing records 0.
TEST(BenchJson, ShardsFieldComesOnlyFromTheTask) {
  std::string path = ::testing::TempDir() + "bench_json_shards.json";
  std::string args[] = {"bench_json_test", "--shards", "4", "--json", path};
  char* argv[] = {args[0].data(), args[1].data(), args[2].data(), args[3].data(),
                  args[4].data()};
  bench::BenchContext ctx(5, argv, "bench_json_test", "Test", "shards attribution");
  ASSERT_EQ(ctx.shards(), 4);
  const std::vector<int> reported = {0, 2};
  ctx.sweep("shards", reported, [](const int& shards) {
    if (shards > 0) harness::report_task_shards(shards);
    return shards;
  });
  ASSERT_EQ(ctx.finish(), 0);

  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  const std::string json = body.str();
  std::remove(path.c_str());
  const std::string key = "\"shards\": ";
  std::vector<std::string> values;
  for (std::size_t at = json.find(key); at != std::string::npos; at = json.find(key, at + 1)) {
    values.push_back(json.substr(at + key.size(), 1));
  }
  EXPECT_EQ(values, (std::vector<std::string>{"0", "2"})) << json;
}

TEST(WorldRunUntil, ReportsPredicateReason) {
  bench::World world(/*seed=*/5);
  bool flag = false;
  world.engine.schedule_after(SimDuration::seconds(10), [&] { flag = true; });
  const bench::RunOutcome out = world.run_until([&] { return flag; });
  EXPECT_TRUE(out);
  EXPECT_EQ(out.reason, bench::RunStop::kPredicate);
}

TEST(WorldRunUntil, BailsOutIdleInsteadOfSteppingToBudget) {
  bench::World world(/*seed=*/5);
  world.engine.schedule_after(SimDuration::seconds(1), [] {});
  // After the lone event fires nothing can ever satisfy the predicate; the
  // call must stop right there, not grind virtual time to the 2-day budget.
  const bench::RunOutcome out = world.run_until([] { return false; });
  EXPECT_FALSE(out);
  EXPECT_EQ(out.reason, bench::RunStop::kIdle);
  EXPECT_LE(world.engine.now() - SimTime::epoch(), SimDuration::seconds(1));
}

TEST(WorldRunUntil, IdleBailIsImmediateOnEmptyWorld) {
  bench::World world(/*seed=*/5);
  const bench::RunOutcome out = world.run_until([] { return false; });
  EXPECT_EQ(out.reason, bench::RunStop::kIdle);
  EXPECT_EQ(world.engine.now(), SimTime::epoch());
  // Repeated calls keep bailing immediately: each cancels its deadline
  // sentinel on exit, so no call leaves work behind for the next.
  const bench::RunOutcome again = world.run_until([] { return false; });
  EXPECT_EQ(again.reason, bench::RunStop::kIdle);
  EXPECT_EQ(world.engine.now(), SimTime::epoch());
}

TEST(WorldRunUntil, ReportsBudgetReasonUnderPeriodicWork) {
  bench::World world(/*seed=*/5);
  sim::PeriodicTask probe(world.engine, SimDuration::minutes(1), [] {});
  probe.start();
  const bench::RunOutcome out =
      world.run_until([] { return false; }, SimDuration::minutes(5));
  EXPECT_FALSE(out.satisfied());
  EXPECT_EQ(out.reason, bench::RunStop::kBudget);
  EXPECT_EQ(world.engine.now() - SimTime::epoch(), SimDuration::minutes(5));
}

}  // namespace
}  // namespace sage
