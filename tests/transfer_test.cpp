// Tests for the geo-transfer substrate: chunking, lanes, relaying, acks,
// retransmission and failure recovery.
#include "net/transfer.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "common/check.hpp"
#include "test_util.hpp"

namespace sage::net {
namespace {

using cloud::Region;
using cloud::VmHandle;
using cloud::VmSize;
using sage::testing::StableWorld;
using sage::testing::run_until;

constexpr Region kNEU = Region::kNorthEU;
constexpr Region kNUS = Region::kNorthUS;

struct TransferFixture : public ::testing::Test {
  StableWorld world;
  cloud::CloudProvider& provider() { return *world.provider; }

  cloud::VmId vm(Region r) { return provider().provision(r, VmSize::kSmall).id; }

  TransferResult run_transfer(Bytes size, std::vector<Lane> lanes,
                              TransferConfig config = {}) {
    TransferResult out{};
    bool done = false;
    GeoTransfer t(provider(), size, std::move(lanes), config,
                  [&](const TransferResult& r) {
                    out = r;
                    done = true;
                  });
    t.start();
    EXPECT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(12)));
    return out;
  }
};

TEST_F(TransferFixture, DirectTransferDelivisAllBytes) {
  const auto a = vm(kNEU);
  const auto b = vm(kNUS);
  const TransferResult r = run_transfer(Bytes::mb(20), direct_lane(a, b));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.size, Bytes::mb(20));
  EXPECT_EQ(r.stats.chunks_delivered, r.stats.chunks_total);
  EXPECT_EQ(r.stats.hop_failures, 0);
}

TEST_F(TransferFixture, ChunkCountMatchesSize) {
  const auto a = vm(kNEU);
  const auto b = vm(kNUS);
  TransferConfig config;
  config.chunk_size = Bytes::mb(4);
  // 10 MB over 4 MB chunks -> 3 chunks (4 + 4 + 2).
  const TransferResult r = run_transfer(Bytes::mb(10), direct_lane(a, b), config);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.stats.chunks_total, 3);
}

TEST_F(TransferFixture, ParallelStreamsBeatSingleStream) {
  const auto a1 = vm(kNEU);
  const auto b1 = vm(kNUS);
  TransferConfig one;
  one.streams_per_hop = 1;
  const TransferResult r1 = run_transfer(Bytes::mb(40), direct_lane(a1, b1), one);

  const auto a2 = vm(kNEU);
  const auto b2 = vm(kNUS);
  TransferConfig four;
  four.streams_per_hop = 4;
  const TransferResult r4 = run_transfer(Bytes::mb(40), direct_lane(a2, b2), four);

  ASSERT_TRUE(r1.ok && r4.ok);
  // 4 parallel streams should cut transatlantic time by at least 2.5x
  // (per-flow cap ~2.7 MB/s vs a 12.5 MB/s NIC).
  EXPECT_GT(r1.elapsed() / r4.elapsed(), 2.5);
}

TEST_F(TransferFixture, MultiLaneScatterBeatsSingleLane) {
  const auto a = vm(kNEU);
  const auto b = vm(kNUS);
  TransferConfig config;
  config.streams_per_hop = 1;

  const TransferResult single = run_transfer(Bytes::mb(40), direct_lane(a, b), config);

  const auto a2 = vm(kNEU);
  const auto b2 = vm(kNUS);
  std::vector<Lane> lanes = direct_lane(a2, b2);
  for (int i = 0; i < 3; ++i) {
    lanes.push_back(Lane{{a2, vm(kNEU), b2}});  // local scatter helpers
  }
  const TransferResult multi = run_transfer(Bytes::mb(40), lanes, config);

  ASSERT_TRUE(single.ok && multi.ok);
  EXPECT_GT(single.elapsed() / multi.elapsed(), 2.0);
}

TEST_F(TransferFixture, SharedPoolShiftsLoadToFastLane) {
  // One lane throttled hard by intrusiveness... instead: one direct lane
  // and one two-WAN-hop lane; the pool should route most bytes through the
  // faster direct lane rather than splitting 50/50.
  const auto a = vm(kNEU);
  const auto b = vm(kNUS);
  const auto slow_fwd = vm(Region::kWestUS);  // NEU->WUS is the slowest link
  std::vector<Lane> lanes = direct_lane(a, b);
  lanes.push_back(Lane{{a, slow_fwd, b}});
  TransferConfig config;
  config.streams_per_hop = 1;

  TransferResult out{};
  bool done = false;
  GeoTransfer t(provider(), Bytes::mb(30), lanes, config, [&](const TransferResult& r) {
    out = r;
    done = true;
  });
  t.start();
  ASSERT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(2)));
  ASSERT_TRUE(out.ok);
  EXPECT_GT(t.lane_bytes()[0], t.lane_bytes()[1]);
}

TEST_F(TransferFixture, RelayLaneDeliversThroughIntermediateRegion) {
  const auto a = vm(kNEU);
  const auto b = vm(kNUS);
  const auto fwd = vm(Region::kEastUS);
  const TransferResult r =
      run_transfer(Bytes::mb(10), {Lane{{a, fwd, b}}});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.stats.chunks_delivered, r.stats.chunks_total);
}

TEST_F(TransferFixture, IntrusivenessThrottlesThroughput) {
  const auto a1 = vm(kNEU);
  const auto b1 = vm(kNUS);
  TransferConfig full;
  full.intrusiveness = 1.0;
  const TransferResult fast = run_transfer(Bytes::mb(20), direct_lane(a1, b1), full);

  const auto a2 = vm(kNEU);
  const auto b2 = vm(kNUS);
  TransferConfig throttled;
  throttled.intrusiveness = 0.10;
  const TransferResult slow = run_transfer(Bytes::mb(20), direct_lane(a2, b2), throttled);

  ASSERT_TRUE(fast.ok && slow.ok);
  EXPECT_GT(slow.elapsed() / fast.elapsed(), 1.8);
}

TEST_F(TransferFixture, AcksAddLatencyForTinyTransfers) {
  // 36 KB is one chunk, so the transfer takes one chunk flow plus its
  // end-to-end ack. A bare fabric flow of the same size and demand cap on a
  // second VM pair takes the flow alone.
  const auto a1 = vm(kNEU);
  const auto b1 = vm(kNUS);
  const TransferResult acked = run_transfer(Bytes::kb(36), direct_lane(a1, b1));

  const auto a2 = vm(kNEU);
  const auto b2 = vm(kNUS);
  const TransferConfig config;
  cloud::FlowOptions options;
  options.demand_cap = cloud::vm_spec(VmSize::kSmall).nic *
                       (config.intrusiveness / static_cast<double>(config.streams_per_hop));
  const SimTime began = world.engine.now();
  std::optional<SimDuration> bare;
  provider().transfer(a2, b2, Bytes::kb(36), options, [&](const cloud::FlowResult& r) {
    EXPECT_TRUE(r.ok());
    bare = world.engine.now() - began;
  });
  ASSERT_TRUE(run_until(world.engine, [&] { return bare.has_value(); }, SimDuration::hours(1)));

  ASSERT_TRUE(acked.ok);
  EXPECT_GT(acked.elapsed(), *bare);
  // The gap is about one one-way control latency (~47.5 ms NUS->NEU).
  EXPECT_NEAR((acked.elapsed() - *bare).to_seconds(), 0.0475, 0.03);
}

TEST_F(TransferFixture, ForwarderFailureRecoversViaRetransmit) {
  const auto a = vm(kNEU);
  const auto b = vm(kNUS);
  const auto fwd = provider().provision(Region::kEastUS, VmSize::kSmall);
  std::vector<Lane> lanes = direct_lane(a, b);
  lanes.push_back(Lane{{a, fwd.id, b}});

  TransferResult out{};
  bool done = false;
  GeoTransfer t(provider(), Bytes::mb(30), lanes, {}, [&](const TransferResult& r) {
    out = r;
    done = true;
  });
  t.start();
  // Kill the forwarder mid-transfer; the direct lane must absorb the work.
  world.engine.schedule_after(SimDuration::seconds(3),
                              [&] { provider().fail_vm(fwd.id); });
  ASSERT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(2)));
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.size, Bytes::mb(30));
  EXPECT_GT(out.stats.hop_failures, 0);
}

TEST_F(TransferFixture, AllLanesDeadFailsTransfer) {
  const auto a = vm(kNEU);
  const auto b = provider().provision(kNUS, VmSize::kSmall);
  TransferResult out{};
  bool done = false;
  GeoTransfer t(provider(), Bytes::mb(50), direct_lane(a, b.id), {},
                [&](const TransferResult& r) {
                  out = r;
                  done = true;
                });
  t.start();
  world.engine.schedule_after(SimDuration::seconds(2), [&] { provider().fail_vm(b.id); });
  ASSERT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(2)));
  EXPECT_FALSE(out.ok);
}

TEST_F(TransferFixture, CancelStopsTransfer) {
  const auto a = vm(kNEU);
  const auto b = vm(kNUS);
  TransferResult out{};
  bool done = false;
  GeoTransfer t(provider(), Bytes::mb(100), direct_lane(a, b), {},
                [&](const TransferResult& r) {
                  out = r;
                  done = true;
                });
  t.start();
  world.engine.run_until(world.engine.now() + SimDuration::seconds(5));
  t.cancel();
  EXPECT_TRUE(done);
  EXPECT_FALSE(out.ok);
  EXPECT_LT(out.size, Bytes::mb(100));
}

TEST_F(TransferFixture, ResetLanesMidFlightCompletes) {
  const auto a = vm(kNEU);
  const auto b = vm(kNUS);
  TransferResult out{};
  bool done = false;
  TransferConfig config;
  config.streams_per_hop = 1;
  GeoTransfer t(provider(), Bytes::mb(40), direct_lane(a, b), config,
                [&](const TransferResult& r) {
                  out = r;
                  done = true;
                });
  t.start();
  world.engine.schedule_after(SimDuration::seconds(4), [&] {
    std::vector<Lane> lanes = direct_lane(a, b);
    lanes.push_back(Lane{{a, vm(kNEU), b}});
    lanes.push_back(Lane{{a, vm(kNEU), b}});
    t.reset_lanes(lanes);
  });
  ASSERT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(2)));
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.size, Bytes::mb(40));
}

TEST_F(TransferFixture, RejectsMismatchedLaneEndpoints) {
  const auto a = vm(kNEU);
  const auto b = vm(kNUS);
  const auto c = vm(Region::kWestEU);
  std::vector<Lane> lanes = direct_lane(a, b);
  lanes.push_back(Lane{{a, c}});  // wrong destination
  EXPECT_THROW(GeoTransfer(provider(), Bytes::mb(1), lanes, {}, [](const TransferResult&) {}),
               CheckFailure);
}

TEST_F(TransferFixture, ProgressIsObservable) {
  const auto a = vm(kNEU);
  const auto b = vm(kNUS);
  bool done = false;
  GeoTransfer t(provider(), Bytes::mb(200), direct_lane(a, b), {},
                [&](const TransferResult&) { done = true; });
  t.start();
  world.engine.run_until(world.engine.now() + SimDuration::seconds(8));
  EXPECT_GT(t.delivered(), Bytes::zero());
  EXPECT_LT(t.delivered(), Bytes::mb(200));
  EXPECT_TRUE(t.running());
  ASSERT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(2)));
  EXPECT_EQ(t.delivered(), Bytes::mb(200));
  EXPECT_TRUE(t.finished());
}

}  // namespace
}  // namespace sage::net
