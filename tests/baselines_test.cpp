// Tests for the baseline transfer backends.
#include "baselines/backends.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace sage::baselines {
namespace {

using cloud::Region;
using sage::testing::StableWorld;
using sage::testing::run_until;
using stream::SendOutcome;

constexpr Region kNEU = Region::kNorthEU;
constexpr Region kNUS = Region::kNorthUS;

struct BaselinesFixture : public ::testing::Test {
  StableWorld world;
  GatewayPool pool{*world.provider};

  SendOutcome run_send(stream::TransferBackend& backend, Bytes size,
                       Region src = kNEU, Region dst = kNUS) {
    SendOutcome out{};
    bool done = false;
    backend.send(src, dst, size, [&](const SendOutcome& o) {
      out = o;
      done = true;
    });
    EXPECT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(12)));
    return out;
  }
};

TEST_F(BaselinesFixture, GatewayPoolReusesGateways) {
  const auto g1 = pool.gateway(kNEU);
  const auto g2 = pool.gateway(kNEU);
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(world.provider->active_vm_count(), 1u);
  const auto helpers = pool.helpers(kNEU, 3);
  EXPECT_EQ(helpers.size(), 3u);
  EXPECT_EQ(world.provider->active_vm_count(), 4u);
  // Requesting fewer returns a prefix without provisioning more.
  EXPECT_EQ(pool.helpers(kNEU, 2).size(), 2u);
  EXPECT_EQ(world.provider->active_vm_count(), 4u);
  pool.release_all();
  EXPECT_EQ(world.provider->active_vm_count(), 0u);
}

TEST_F(BaselinesFixture, DirectBackendMovesData) {
  DirectBackend backend(pool);
  const SendOutcome o = run_send(backend, Bytes::mb(20));
  EXPECT_TRUE(o.ok);
  EXPECT_GT(o.elapsed.to_seconds(), 1.0);
}

TEST_F(BaselinesFixture, SimpleParallelFasterThanDirect) {
  net::TransferConfig config;
  config.streams_per_hop = 1;
  DirectBackend direct(pool, config);
  SimpleParallelBackend parallel(pool, /*nodes=*/4, config);
  const SendOutcome d = run_send(direct, Bytes::mb(40));
  const SendOutcome p = run_send(parallel, Bytes::mb(40));
  ASSERT_TRUE(d.ok && p.ok);
  EXPECT_GT(d.elapsed / p.elapsed, 2.0);
}

TEST_F(BaselinesFixture, GlobusStaticUsesParallelStreams) {
  // fig8's GlobusStatic column: a direct transfer tuned once to 3 streams.
  net::TransferConfig one_stream;
  one_stream.streams_per_hop = 1;
  net::TransferConfig three_streams;
  three_streams.streams_per_hop = 3;
  DirectBackend direct(pool, one_stream);
  DirectBackend globus(pool, three_streams);
  const SendOutcome d = run_send(direct, Bytes::mb(40));
  const SendOutcome g = run_send(globus, Bytes::mb(40));
  ASSERT_TRUE(d.ok && g.ok);
  EXPECT_GT(d.elapsed / g.elapsed, 2.0);
}

TEST_F(BaselinesFixture, BlobRelayIsSlowestButWorks) {
  DirectBackend direct(pool);
  BlobRelayBackend blob(pool);
  const SendOutcome d = run_send(direct, Bytes::mb(50));
  const SendOutcome b = run_send(blob, Bytes::mb(50));
  ASSERT_TRUE(d.ok && b.ok);
  EXPECT_GT(b.elapsed, d.elapsed * 1.5);
  // The relay leaves no stranded objects behind.
  EXPECT_EQ(world.provider->blob(kNUS).object_count(), 0u);
}

TEST_F(BaselinesFixture, BlobRelayIncursStorageTransactions) {
  BlobRelayBackend blob(pool);
  const SendOutcome o = run_send(blob, Bytes::mb(10));
  ASSERT_TRUE(o.ok);
  const cloud::CostReport report = world.provider->cost_report();
  EXPECT_GT(report.blob_transactions.count_micro_usd(), 0);
}

TEST_F(BaselinesFixture, BackendsHandleConcurrentSends) {
  DirectBackend backend(pool);
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    backend.send(kNEU, kNUS, Bytes::mb(5), [&](const SendOutcome& o) {
      EXPECT_TRUE(o.ok);
      ++done;
    });
  }
  ASSERT_TRUE(run_until(world.engine, [&] { return done == 5; }, SimDuration::hours(2)));
}

TEST_F(BaselinesFixture, DoneCallbackMaySendAgainWhenAHopNodeFails) {
  // Failing the receiving gateway aborts the hop flows, which kills the
  // transfer's only lane, so the transfer finishes from inside its own
  // hop-flow callback. The done callback sends again, and send() first
  // reaps finished transfers, destroying the one still unwinding. The
  // transfer must not touch itself after its done callback returns.
  DirectBackend backend(pool);
  int failed = 0;
  bool resent = false;
  backend.send(kNEU, kNUS, Bytes::mb(200), [&](const SendOutcome& o) {
    EXPECT_FALSE(o.ok);
    ++failed;
    backend.send(kNEU, Region::kWestEU, Bytes::mb(5), [&](const SendOutcome& again) {
      EXPECT_TRUE(again.ok);
      resent = true;
    });
  });
  world.engine.run_until(world.engine.now() + SimDuration::seconds(5));
  ASSERT_EQ(failed, 0);
  world.provider->fail_vm(pool.gateway(kNUS));
  EXPECT_EQ(failed, 1);
  EXPECT_TRUE(run_until(world.engine, [&] { return resent; }, SimDuration::hours(2)));
  EXPECT_EQ(failed, 1);
}

TEST_F(BaselinesFixture, NamesAreDistinct) {
  DirectBackend a(pool);
  SimpleParallelBackend b(pool, 2);
  BlobRelayBackend c(pool);
  EXPECT_EQ(a.name(), "Direct");
  EXPECT_EQ(b.name(), "SimpleParallel");
  EXPECT_EQ(c.name(), "BlobRelay");
}

}  // namespace
}  // namespace sage::baselines
