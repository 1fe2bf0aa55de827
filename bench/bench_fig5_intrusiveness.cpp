// Fig 5 — Impact of intrusiveness on transfer time.
//
// 1 GB moves from North EU to North US while the transfer system is
// restricted to 5%, 10% or 20% of each VM's resources (the shared-VM
// deployment mode), using 1 to 5 sender VMs. Within each intrusiveness
// segment the highest bar is the single-VM transfer, and each doubling of
// the resource fraction roughly halves it — the observation that motivates
// fine-grained control of that fraction. Adding VMs cuts the time about in
// proportion to their number: the full grid reads 4.76x to 5.11x at 5 VMs,
// and the speedup an added VM buys does not shrink (the 5% row gains 0.90x
// from 3 to 4 VMs and 0.98x from 4 to 5). Only the seconds each added VM
// saves shrink, as they do under any near-linear speedup.
#include "bench_util.hpp"
#include "net/transfer.hpp"

namespace sage::bench {
namespace {

SimDuration run_one(double intrusiveness, int vms, std::uint64_t seed) {
  World world(seed);
  const LaneFan fan = provision_fan(*world.provider, cloud::Region::kNorthEU,
                                    cloud::Region::kNorthUS, vms);

  net::TransferConfig config;
  config.intrusiveness = intrusiveness;
  config.streams_per_hop = 2;
  return run_transfer(world, Bytes::gb(1), fan.lanes, config, SimDuration::days(5))
      .elapsed();
}

struct Cell {
  double intr = 0.0;
  int vms = 0;
};

void run(BenchContext& ctx) {
  const std::vector<double> intr_grid =
      ctx.smoke() ? std::vector<double>{0.05, 0.20}
                  : std::vector<double>{0.05, 0.10, 0.20};
  const int max_vms = ctx.smoke() ? 3 : 5;
  std::vector<Cell> grid;
  for (double intr : intr_grid) {
    for (int vms = 1; vms <= max_vms; ++vms) grid.push_back({intr, vms});
  }

  const auto results = ctx.sweep(
      "intrusiveness", grid, [](const Cell& c) { return run_one(c.intr, c.vms, 55); });

  TextTable t({"Intrusiveness", "VMs", "Transfer time s", "Speedup vs 1 VM"});
  double base = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const SimDuration elapsed = results[i];
    if (grid[i].vms == 1) base = elapsed.to_seconds();
    t.add_row({TextTable::num(grid[i].intr * 100.0, 0) + "%",
               std::to_string(grid[i].vms), TextTable::num(elapsed.to_seconds(), 0),
               TextTable::num(base / elapsed.to_seconds(), 2)});
  }
  print_table(t);
  print_note(
      "\nShape check: each doubling of intrusiveness roughly halves the "
      "single-VM time; n VMs run close to n times faster than one, so each "
      "added VM saves fewer seconds than the one before.");
}

}  // namespace
}  // namespace sage::bench

int main(int argc, char** argv) {
  sage::bench::BenchContext ctx(
      argc, argv, "fig5_intrusiveness", "Fig 5",
      "Intrusiveness x sender VMs -> transfer time (1 GB, NEU -> NUS)");
  sage::bench::run(ctx);
  return ctx.finish();
}
