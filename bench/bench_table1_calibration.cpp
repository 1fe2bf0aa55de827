// Table 1 — Simulated Azure inventory & calibration.
//
// Regenerates the experimental-setup table: regions, VM catalogue with
// prices, and the calibrated baseline inter-datacenter single-flow
// throughput matrix (measured by actually probing the fabric for an hour,
// not by echoing the topology constants — the point is that the substrate
// delivers what the calibration promises).
#include "bench_util.hpp"
#include "cloud/vm.hpp"
#include "common/stats.hpp"

namespace sage::bench {
namespace {

void vm_catalogue() {
  print_note("\nVM catalogue (2013-era price book):");
  TextTable t({"Size", "Cores", "Memory", "NIC", "Price/hour", "Compute factor"});
  for (const cloud::VmSize size : cloud::kAllVmSizes) {
    const cloud::VmSpec spec = cloud::vm_spec(size);
    t.add_row({std::string(spec.name), std::to_string(spec.cores),
               TextTable::num(spec.memory_gb, 2) + " GB", to_string(spec.nic),
               to_string(spec.hourly_price), TextTable::num(spec.compute_factor, 2)});
  }
  print_table(t);
}

void throughput_matrix() {
  print_note("\nMeasured single-flow throughput matrix (MB/s, Small VMs, 1 h of probes):");
  World world(/*seed=*/11);
  auto& provider = *world.provider;

  std::array<cloud::VmHandle, cloud::kRegionCount> vms;
  for (cloud::Region r : cloud::kAllRegions) {
    vms[cloud::region_index(r)] = provider.provision(r, cloud::VmSize::kSmall);
  }

  std::array<std::array<OnlineStats, cloud::kRegionCount>, cloud::kRegionCount> cells;
  // 12 probe rounds, 5 minutes apart.
  for (int round = 0; round < 12; ++round) {
    for (cloud::Region a : cloud::kAllRegions) {
      for (cloud::Region b : cloud::kAllRegions) {
        if (a == b) continue;
        bool done = false;
        provider.transfer(vms[cloud::region_index(a)].id, vms[cloud::region_index(b)].id,
                          Bytes::mb(8), {}, [&, a, b](const cloud::FlowResult& r) {
                            if (r.ok()) {
                              cells[cloud::region_index(a)][cloud::region_index(b)].add(
                                  r.achieved_rate().to_mb_per_sec());
                            }
                            done = true;
                          });
        world.run_until([&] { return done; });
      }
    }
    world.run_for(SimDuration::minutes(5));
  }

  std::vector<std::string> headers = {"from \\ to"};
  for (cloud::Region r : cloud::kAllRegions) headers.emplace_back(cloud::region_code(r));
  TextTable t(headers);
  for (cloud::Region a : cloud::kAllRegions) {
    std::vector<std::string> row = {std::string(cloud::region_code(a))};
    for (cloud::Region b : cloud::kAllRegions) {
      if (a == b) {
        row.emplace_back("-");
      } else {
        row.push_back(TextTable::num(
            cells[cloud::region_index(a)][cloud::region_index(b)].mean(), 2));
      }
    }
    t.add_row(row);
  }
  print_table(t);
}

void price_book() {
  print_note("\nData pricing:");
  cloud::PricingModel pricing;
  TextTable t({"Item", "Price"});
  t.add_row({"WAN egress (any zone-1 region)",
             to_string(pricing.egress_per_gb(cloud::Region::kNorthEU)) + " / GB"});
  t.add_row({"WAN ingress", "$0.0000 / GB (free)"});
  t.add_row({"Blob capacity", to_string(pricing.blob_storage_per_gb_month()) +
                                  " / GB-month"});
  t.add_row({"Blob transaction", to_string(pricing.blob_transaction()) + " / op"});
  print_table(t);
}

}  // namespace
}  // namespace sage::bench

int main(int argc, char** argv) {
  using namespace sage::bench;
  BenchContext ctx(argc, argv, "table1_calibration", "Table 1",
                   "Simulated Azure inventory & calibration");
  print_note("6 datacenters: North/West EU, North/South/East/West US.");
  vm_catalogue();
  throughput_matrix();
  price_book();
  return ctx.finish();
}
