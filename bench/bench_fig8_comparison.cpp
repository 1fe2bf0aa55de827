// Fig 8 — SAGE vs the existing transfer options.
//
// Transfer time NEU -> NUS as the payload grows, for:
//   * BlobRelay     — the stock cloud offering (write to the destination
//                     region's object store, read back);
//   * Direct        — endpoint-to-endpoint, single stream;
//   * GlobusStatic  — GridFTP-style parallel streams, tuned once, no
//                     cloud awareness;
//   * SAGE          — monitored, modelled, multi-lane/multi-path engine.
#include "baselines/backends.hpp"
#include "bench_util.hpp"
#include "core/sage.hpp"

namespace sage::bench {
namespace {

constexpr cloud::Region kSrc = cloud::Region::kNorthEU;
constexpr cloud::Region kDst = cloud::Region::kNorthUS;

SimDuration run_baseline(const std::function<std::unique_ptr<stream::TransferBackend>(
                             baselines::GatewayPool&)>& make,
                         Bytes size, std::uint64_t seed) {
  World world(seed);
  baselines::GatewayPool pool(*world.provider);
  auto backend = make(pool);
  return send_blocking(world, *backend, kSrc, kDst, size).elapsed;
}

SimDuration run_sage(Bytes size, std::uint64_t seed) {
  World world(seed);
  SageDeployOptions deploy;
  deploy.regions = {cloud::Region::kNorthEU, cloud::Region::kWestEU,
                    cloud::Region::kEastUS, cloud::Region::kNorthUS};
  auto engine = deploy_sage(world, deploy);
  return send_blocking(world, *engine, kSrc, kDst, size).elapsed;
}

enum class System { kBlob, kDirect, kGlobus, kSage };

struct Cell {
  double mb = 0.0;
  System system = System::kBlob;
};

SimDuration run_cell(const Cell& c) {
  const Bytes size = Bytes::mb(c.mb);
  const std::uint64_t seed = 88;
  switch (c.system) {
    case System::kBlob:
      return run_baseline(
          [](baselines::GatewayPool& pool) {
            return std::make_unique<baselines::BlobRelayBackend>(pool);
          },
          size, seed);
    case System::kDirect:
      return run_baseline(
          [](baselines::GatewayPool& pool) {
            net::TransferConfig config;
            config.streams_per_hop = 1;
            return std::make_unique<baselines::DirectBackend>(pool, config);
          },
          size, seed);
    case System::kGlobus:
      // GridFTP-style: a direct transfer whose stream count is tuned once
      // at deployment, on dedicated transfer VMs, with no cloud awareness.
      return run_baseline(
          [](baselines::GatewayPool& pool) {
            net::TransferConfig config;
            config.streams_per_hop = 3;
            return std::make_unique<baselines::DirectBackend>(pool, config);
          },
          size, seed);
    case System::kSage: return run_sage(size, seed);
  }
  return SimDuration::zero();
}

void run(BenchContext& ctx) {
  const std::vector<double> sizes = ctx.smoke()
                                        ? std::vector<double>{64.0, 256.0}
                                        : std::vector<double>{64.0, 256.0, 1024.0, 4096.0};
  const System systems[] = {System::kBlob, System::kDirect, System::kGlobus,
                            System::kSage};
  std::vector<Cell> grid;
  for (double mb : sizes) {
    for (System system : systems) grid.push_back({mb, system});
  }
  const auto times = ctx.sweep("comparison", grid, run_cell);

  TextTable t({"Size", "BlobRelay s", "Direct s", "GlobusStatic s", "SAGE s",
               "Blob/SAGE", "Globus/SAGE"});
  for (std::size_t i = 0; i < grid.size(); i += 4) {
    const Bytes size = Bytes::mb(grid[i].mb);
    const SimDuration blob = times[i];
    const SimDuration direct = times[i + 1];
    const SimDuration globus = times[i + 2];
    const SimDuration sage_t = times[i + 3];
    t.add_row({to_string(size), TextTable::num(blob.to_seconds(), 0),
               TextTable::num(direct.to_seconds(), 0),
               TextTable::num(globus.to_seconds(), 0),
               TextTable::num(sage_t.to_seconds(), 0),
               TextTable::num(blob / sage_t, 1), TextTable::num(globus / sage_t, 2)});
  }
  print_table(t);
  print_note(
      "\nShape check: BlobRelay is slowest at every size (two serialized "
      "HTTP-fronted staging phases), ~9x SAGE at 1 GB+; Direct sits "
      "between; GlobusStatic closes much of the gap through parallel "
      "streams, but SAGE's extra lanes and alternative paths keep a ~2x "
      "edge from 256 MB up.");
}

}  // namespace
}  // namespace sage::bench

int main(int argc, char** argv) {
  sage::bench::BenchContext ctx(argc, argv, "fig8_comparison", "Fig 8",
                                "Transfer time vs data size across systems (NEU -> NUS)");
  sage::bench::run(ctx);
  return ctx.finish();
}
