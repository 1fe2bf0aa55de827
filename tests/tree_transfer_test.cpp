// Tests for the cut-through tree multicast (net::TreeTransfer).
#include "net/tree_transfer.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "test_util.hpp"

namespace sage::net {
namespace {

using cloud::Region;
using cloud::VmSize;
using sage::testing::StableWorld;
using sage::testing::run_until;

constexpr Region kNEU = Region::kNorthEU;
constexpr Region kWEU = Region::kWestEU;
constexpr Region kNUS = Region::kNorthUS;
constexpr Region kEUS = Region::kEastUS;

struct TreeFixture : public ::testing::Test {
  StableWorld world;
  cloud::CloudProvider& provider() { return *world.provider; }

  cloud::VmId vm(Region r) { return provider().provision(r, VmSize::kSmall).id; }

  TreeResult run_tree(Bytes size, std::vector<TreeNode> nodes,
                      TransferConfig config = {}) {
    TreeResult out{};
    bool done = false;
    TreeTransfer t(provider(), size, std::move(nodes), config,
                   [&](const TreeResult& r) {
                     out = r;
                     done = true;
                   });
    t.start();
    EXPECT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(12)));
    return out;
  }
};

TEST_F(TreeFixture, SingleEdgeDelivers) {
  const TreeResult r =
      run_tree(Bytes::mb(20), {{vm(kNEU), -1}, {vm(kNUS), 0}});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.size, Bytes::mb(20));
  ASSERT_EQ(r.node_completion.size(), 2u);
  EXPECT_TRUE(r.node_completion[0].is_zero());  // root owns the data
  EXPECT_GT(r.node_completion[1].to_seconds(), 1.0);
}

TEST_F(TreeFixture, StarDeliversToAllChildren) {
  const TreeResult r = run_tree(
      Bytes::mb(10), {{vm(kNEU), -1}, {vm(kWEU), 0}, {vm(kNUS), 0}, {vm(kEUS), 0}});
  ASSERT_TRUE(r.ok);
  for (std::size_t i = 1; i < r.node_completion.size(); ++i) {
    EXPECT_GT(r.node_completion[i].to_seconds(), 0.0);
  }
  // The regional child (WEU) finishes before the transatlantic ones.
  EXPECT_LT(r.node_completion[1], r.node_completion[2]);
}

TEST_F(TreeFixture, CutThroughBeatsStoreAndForward) {
  // Chain NEU -> NUS -> EUS. With cut-through, EUS finishes shortly after
  // NUS (one chunk's lag), nowhere near 2x the first hop's time.
  TransferConfig config;
  config.chunk_size = Bytes::mib(1);
  const TreeResult r = run_tree(
      Bytes::mb(40), {{vm(kNEU), -1}, {vm(kNUS), 0}, {vm(kEUS), 1}}, config);
  ASSERT_TRUE(r.ok);
  const double first_hop = r.node_completion[1].to_seconds();
  const double leaf = r.node_completion[2].to_seconds();
  EXPECT_GT(leaf, first_hop);       // the leaf cannot beat its feeder
  EXPECT_LT(leaf, first_hop * 1.3); // ...but pipelining keeps it close
}

TEST_F(TreeFixture, ChainCompletionIsMonotone) {
  const TreeResult r = run_tree(
      Bytes::mb(10),
      {{vm(kNEU), -1}, {vm(kWEU), 0}, {vm(kEUS), 1}, {vm(kNUS), 2}});
  ASSERT_TRUE(r.ok);
  for (std::size_t i = 2; i < r.node_completion.size(); ++i) {
    EXPECT_GE(r.node_completion[i], r.node_completion[i - 1]);
  }
}

TEST_F(TreeFixture, InteriorNodeFailureFailsTransfer) {
  const auto root = vm(kNEU);
  const auto mid = provider().provision(kNUS, VmSize::kSmall);
  const auto leaf = vm(kEUS);
  TreeResult out{};
  bool done = false;
  TreeTransfer t(provider(), Bytes::mb(50),
                 {{root, -1}, {mid.id, 0}, {leaf, 1}}, {},
                 [&](const TreeResult& r) {
                   out = r;
                   done = true;
                 });
  t.start();
  world.engine.schedule_after(SimDuration::seconds(3),
                              [&] { provider().fail_vm(mid.id); });
  ASSERT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(2)));
  EXPECT_FALSE(out.ok);
  EXPECT_GT(out.edge_failures, 0);
}

TEST_F(TreeFixture, CancelFiresCallbackOnce) {
  TreeResult out{};
  int calls = 0;
  TreeTransfer t(provider(), Bytes::mb(100), {{vm(kNEU), -1}, {vm(kNUS), 0}}, {},
                 [&](const TreeResult& r) {
                   out = r;
                   ++calls;
                 });
  t.start();
  world.engine.run_until(world.engine.now() + SimDuration::seconds(5));
  t.cancel();
  t.cancel();  // idempotent
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(out.ok);
  EXPECT_TRUE(t.finished());
}

TEST_F(TreeFixture, ChunkCompletionCounterReachesTotal) {
  TransferConfig config;
  config.chunk_size = Bytes::mb(2);
  const TreeResult r = run_tree(
      Bytes::mb(10), {{vm(kNEU), -1}, {vm(kWEU), 0}, {vm(kNUS), 0}}, config);
  ASSERT_TRUE(r.ok);
  // Every node completes once all five 2 MB chunks have landed there.
  ASSERT_EQ(r.node_completion.size(), 3u);
  EXPECT_TRUE(r.node_completion[0].is_zero());
  EXPECT_GT(r.node_completion[1], SimDuration::zero());
  EXPECT_GT(r.node_completion[2], SimDuration::zero());
}

TEST_F(TreeFixture, RejectsMalformedTrees) {
  EXPECT_THROW(
      TreeTransfer(provider(), Bytes::mb(1), {{vm(kNEU), -1}}, {},
                   [](const TreeResult&) {}),
      CheckFailure);
  // Child referencing a later index.
  EXPECT_THROW(
      TreeTransfer(provider(), Bytes::mb(1),
                   {{vm(kNEU), -1}, {vm(kNUS), 2}, {vm(kEUS), 0}}, {},
                   [](const TreeResult&) {}),
      CheckFailure);
}

// Parameterized sweep: the multicast must deliver exactly once to every
// node across tree shapes and chunk sizes.
class TreeMatrix : public ::testing::TestWithParam<std::tuple<int, std::int64_t>> {};

TEST_P(TreeMatrix, DeliversEverywhere) {
  const auto [shape, chunk_kb] = GetParam();
  StableWorld world;
  auto& provider = *world.provider;
  auto vm = [&](Region r) { return provider.provision(r, VmSize::kSmall).id; };

  std::vector<TreeNode> nodes;
  switch (shape) {
    case 0:  // star
      nodes = {{vm(kNEU), -1}, {vm(kWEU), 0}, {vm(kNUS), 0}, {vm(kEUS), 0}};
      break;
    case 1:  // chain
      nodes = {{vm(kNEU), -1}, {vm(kWEU), 0}, {vm(kNUS), 1}, {vm(kEUS), 2}};
      break;
    default:  // mixed
      nodes = {{vm(kNEU), -1}, {vm(kNUS), 0}, {vm(kEUS), 1}, {vm(kWEU), 0}};
      break;
  }
  TransferConfig config;
  config.chunk_size = Bytes::kb(static_cast<double>(chunk_kb));

  TreeResult out{};
  bool done = false;
  TreeTransfer t(provider, Bytes::mb(7), nodes, config, [&](const TreeResult& r) {
    out = r;
    done = true;
  });
  t.start();
  ASSERT_TRUE(sage::testing::run_until(world.engine, [&] { return done; },
                                       SimDuration::hours(6)));
  ASSERT_TRUE(out.ok);
  for (std::size_t i = 1; i < out.node_completion.size(); ++i) {
    EXPECT_GT(out.node_completion[i].to_seconds(), 0.0) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndChunks, TreeMatrix,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values<std::int64_t>(512, 2048, 8192)));

}  // namespace
}  // namespace sage::net
