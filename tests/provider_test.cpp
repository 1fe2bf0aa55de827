// Tests for the cloud provider facade: VM lifecycle, billing, blobs, CPU.
#include "cloud/provider.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "test_util.hpp"

namespace sage::cloud {
namespace {

using sage::testing::StableWorld;
using sage::testing::run_until;

TEST(VmCatalogTest, SpecsMatchTheAzurePriceBook) {
  EXPECT_EQ(vm_spec(VmSize::kSmall).cores, 1);
  EXPECT_DOUBLE_EQ(vm_spec(VmSize::kSmall).memory_gb, 1.75);
  EXPECT_DOUBLE_EQ(vm_spec(VmSize::kSmall).nic.to_mb_per_sec(), 12.5);
  EXPECT_DOUBLE_EQ(vm_spec(VmSize::kSmall).hourly_price.to_usd(), 0.06);
  EXPECT_EQ(vm_spec(VmSize::kMedium).cores, 2);
  EXPECT_EQ(vm_spec(VmSize::kXLarge).cores, 8);
  EXPECT_DOUBLE_EQ(vm_spec(VmSize::kXLarge).nic.to_mb_per_sec(), 100.0);
  EXPECT_DOUBLE_EQ(vm_spec(VmSize::kXLarge).hourly_price.to_usd(), 0.48);
}

TEST(PricingTest, VmLeaseProrates) {
  PricingModel pricing;
  EXPECT_DOUBLE_EQ(pricing.vm_lease(VmSize::kSmall, SimDuration::hours(1)).to_usd(), 0.06);
  EXPECT_NEAR(pricing.vm_lease(VmSize::kSmall, SimDuration::minutes(30)).to_usd(), 0.03,
              1e-9);
}

TEST(PricingTest, EgressFreeWithinRegion) {
  PricingModel pricing;
  EXPECT_TRUE(pricing.egress(Region::kNorthEU, Region::kNorthEU, Bytes::gb(10)).is_zero());
  EXPECT_NEAR(pricing.egress(Region::kNorthEU, Region::kNorthUS, Bytes::gb(10)).to_usd(),
              1.2, 1e-9);
}

TEST(PricingTest, BlobStorageMonthly) {
  PricingModel pricing;
  // 1 GB for one 30-day month = $0.07.
  EXPECT_NEAR(pricing.blob_storage(Bytes::gb(1), SimDuration::days(30)).to_usd(), 0.07,
              1e-6);
}

TEST(ProviderTest, ProvisionAndRelease) {
  StableWorld world;
  auto& provider = *world.provider;
  const VmHandle vm = provider.provision(Region::kNorthEU, VmSize::kSmall);
  EXPECT_TRUE(provider.is_active(vm.id));
  EXPECT_EQ(provider.vm(vm.id).region, Region::kNorthEU);
  EXPECT_EQ(provider.active_vm_count(), 1u);
  provider.release(vm.id);
  EXPECT_FALSE(provider.is_active(vm.id));
  EXPECT_EQ(provider.active_vm_count(), 0u);
}

TEST(ProviderTest, VmLeaseBilledForHeldDuration) {
  StableWorld world;
  auto& provider = *world.provider;
  const VmHandle vm = provider.provision(Region::kNorthEU, VmSize::kSmall);
  world.engine.schedule_after(SimDuration::hours(2), [&] { provider.release(vm.id); });
  world.engine.run();
  EXPECT_NEAR(provider.cost_report().vm_lease.to_usd(), 0.12, 1e-6);
}

TEST(ProviderTest, ActiveLeaseAccruesWithoutFinalizing) {
  StableWorld world;
  auto& provider = *world.provider;
  provider.provision(Region::kNorthEU, VmSize::kSmall);
  world.engine.run_until(world.engine.now() + SimDuration::hours(1));
  EXPECT_NEAR(provider.cost_report().vm_lease.to_usd(), 0.06, 1e-6);
  world.engine.run_until(world.engine.now() + SimDuration::hours(1));
  // Accrual is idempotent, not double-charged.
  EXPECT_NEAR(provider.cost_report().vm_lease.to_usd(), 0.12, 1e-6);
}

TEST(ProviderTest, TransferBillsEgressOnce) {
  StableWorld world;
  auto& provider = *world.provider;
  const VmHandle a = provider.provision(Region::kNorthEU, VmSize::kSmall);
  const VmHandle b = provider.provision(Region::kNorthUS, VmSize::kSmall);
  bool done = false;
  provider.transfer(a.id, b.id, Bytes::gb(1), {}, [&](const FlowResult&) { done = true; });
  ASSERT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(2)));
  const CostReport report = provider.cost_report();
  EXPECT_NEAR(report.egress.to_usd(), 0.12, 0.01);
  // Re-reporting must not re-bill.
  EXPECT_NEAR(provider.cost_report().egress.to_usd(), report.egress.to_usd(), 1e-9);
}

TEST(ProviderTest, FailVmAbortsAndStopsBilling) {
  StableWorld world;
  auto& provider = *world.provider;
  const VmHandle a = provider.provision(Region::kNorthEU, VmSize::kSmall);
  const VmHandle b = provider.provision(Region::kNorthUS, VmSize::kSmall);
  FlowResult result{};
  bool done = false;
  provider.transfer(a.id, b.id, Bytes::gb(1), {}, [&](const FlowResult& r) {
    result = r;
    done = true;
  });
  world.engine.run_until(world.engine.now() + SimDuration::minutes(1));
  provider.fail_vm(b.id);
  EXPECT_TRUE(done);
  EXPECT_EQ(result.outcome, FlowOutcome::kFailed);
  const Money billed_at_failure = provider.cost_report().vm_lease;
  world.engine.run_until(world.engine.now() + SimDuration::hours(5));
  provider.release(a.id);
  // b stopped billing at failure; only a kept accruing.
  const Money final_bill = provider.cost_report().vm_lease;
  EXPECT_GT(final_bill, billed_at_failure);
  EXPECT_LT(final_bill.to_usd(), 0.06 * 5.2 + 0.01);
}

TEST(ProviderTest, CpuFactorIsNearNominal) {
  StableWorld world;
  auto& provider = *world.provider;
  const VmHandle vm = provider.provision(Region::kNorthEU, VmSize::kSmall);
  OnlineStats stats;
  for (int i = 0; i < 200; ++i) {
    world.engine.run_until(world.engine.now() + SimDuration::minutes(1));
    stats.add(provider.vm_cpu_factor(vm.id));
  }
  EXPECT_GT(stats.mean(), 0.7);
  EXPECT_LT(stats.mean(), 1.2);
  EXPECT_GT(stats.min(), 0.0);
}

TEST(BlobTest, PutThenGetRoundTrips) {
  StableWorld world;
  auto& provider = *world.provider;
  auto& blob = provider.blob(Region::kNorthEU);
  const VmHandle vm = provider.provision(Region::kNorthEU, VmSize::kSmall);

  bool put_done = false;
  BlobOpResult put_result{};
  blob.put(provider.vm(vm.id).node, "obj", Bytes::mb(100), [&](const BlobOpResult& r) {
    put_result = r;
    put_done = true;
  });
  ASSERT_TRUE(run_until(world.engine, [&] { return put_done; }, SimDuration::hours(1)));
  ASSERT_TRUE(put_result.ok);
  EXPECT_TRUE(blob.exists("obj"));
  EXPECT_EQ(blob.object_size("obj"), Bytes::mb(100));
  EXPECT_GT(put_result.elapsed.to_seconds(), 5.0);  // ~6 MB/s class service

  bool get_done = false;
  BlobOpResult get_result{};
  blob.get(provider.vm(vm.id).node, "obj", [&](const BlobOpResult& r) {
    get_result = r;
    get_done = true;
  });
  ASSERT_TRUE(run_until(world.engine, [&] { return get_done; }, SimDuration::hours(1)));
  EXPECT_TRUE(get_result.ok);
}

TEST(BlobTest, GetMissingObjectFails) {
  StableWorld world;
  auto& provider = *world.provider;
  auto& blob = provider.blob(Region::kNorthEU);
  const VmHandle vm = provider.provision(Region::kNorthEU, VmSize::kSmall);
  bool done = false;
  BlobOpResult result{};
  blob.get(provider.vm(vm.id).node, "nope", [&](const BlobOpResult& r) {
    result = r;
    done = true;
  });
  world.engine.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(result.ok);
}

TEST(BlobTest, RemoveDeletesAndObjectCountTracks) {
  StableWorld world;
  auto& provider = *world.provider;
  auto& blob = provider.blob(Region::kWestEU);
  const VmHandle vm = provider.provision(Region::kWestEU, VmSize::kSmall);
  bool done = false;
  blob.put(provider.vm(vm.id).node, "x", Bytes::mb(1), [&](const BlobOpResult&) {
    done = true;
  });
  ASSERT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(1)));
  EXPECT_EQ(blob.object_count(), 1u);
  blob.remove("x");
  EXPECT_EQ(blob.object_count(), 0u);
  EXPECT_FALSE(blob.exists("x"));
}

TEST(BlobTest, TransactionsAndStorageAreBilled) {
  StableWorld world;
  auto& provider = *world.provider;
  auto& blob = provider.blob(Region::kNorthEU);
  const VmHandle vm = provider.provision(Region::kNorthEU, VmSize::kSmall);
  bool done = false;
  blob.put(provider.vm(vm.id).node, "bill", Bytes::gb(10), [&](const BlobOpResult&) {
    done = true;
  });
  ASSERT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(6)));
  world.engine.run_until(world.engine.now() + SimDuration::days(30));
  const CostReport report = provider.cost_report();
  EXPECT_GT(report.blob_transactions.count_micro_usd(), 0);
  EXPECT_NEAR(report.blob_storage.to_usd(), 0.7, 0.02);  // 10 GB-month
}

TEST(BlobTest, RemotePutCrossesWanAndIsSlower) {
  StableWorld world;
  auto& provider = *world.provider;
  const VmHandle eu = provider.provision(Region::kNorthEU, VmSize::kSmall);
  auto put_time = [&](BlobService& blob) {
    bool done = false;
    BlobOpResult result{};
    blob.put(provider.vm(eu.id).node, "o", Bytes::mb(50), [&](const BlobOpResult& r) {
      result = r;
      done = true;
    });
    EXPECT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(1)));
    EXPECT_TRUE(result.ok);
    return result.elapsed;
  };
  const SimDuration local = put_time(provider.blob(Region::kNorthEU));
  const SimDuration remote = put_time(provider.blob(Region::kNorthUS));
  EXPECT_GT(remote, local * 1.5);
}

}  // namespace
}  // namespace sage::cloud
