// Fig 2 — Blob-storage staging vs direct streaming.
//
// The stock cloud path for moving data between sites is "write it to the
// object store, read it back": this bench measures the write-phase time of
// a 100 MB object from a North EU client to each region's blob service (a
// week-long campaign summarised as mean ± stddev), side by side with a
// direct VM-to-VM transfer of the same payload.
#include "bench_util.hpp"
#include "common/stats.hpp"

namespace sage::bench {
namespace {

void run() {
  World world(/*seed=*/77);
  auto& provider = *world.provider;
  const auto src = provider.provision(cloud::Region::kNorthEU, cloud::VmSize::kSmall);
  std::array<cloud::VmHandle, cloud::kRegionCount> peers;
  for (cloud::Region r : cloud::kAllRegions) {
    peers[cloud::region_index(r)] = provider.provision(r, cloud::VmSize::kSmall);
  }

  const Bytes payload = Bytes::mb(100);
  const int rounds = 48;  // every ~3.5 h over a simulated week

  std::array<OnlineStats, cloud::kRegionCount> blob_times;
  std::array<OnlineStats, cloud::kRegionCount> direct_times;

  for (int i = 0; i < rounds; ++i) {
    for (cloud::Region r : cloud::kAllRegions) {
      // Blob write phase towards region r's store.
      bool put_done = false;
      const std::string name = "fig2-" + std::to_string(i);
      provider.blob(r).put(provider.vm(src.id).node, name, payload,
                           [&](const cloud::BlobOpResult& result) {
                             if (result.ok) {
                               blob_times[cloud::region_index(r)].add(
                                   result.elapsed.to_seconds());
                             }
                             put_done = true;
                           });
      world.run_until([&] { return put_done; });
      provider.blob(r).remove(name);

      // Direct VM-to-VM transfer of the same payload.
      if (r != cloud::Region::kNorthEU) {
        bool done = false;
        provider.transfer(src.id, peers[cloud::region_index(r)].id, payload, {},
                          [&](const cloud::FlowResult& result) {
                            if (result.ok()) {
                              direct_times[cloud::region_index(r)].add(
                                  result.elapsed().to_seconds());
                            }
                            done = true;
                          });
        world.run_until([&] { return done; });
      }
    }
    world.run_for(SimDuration::hours(3.5));
  }

  TextTable t({"Destination", "Blob write mean s", "Blob stddev", "Direct TCP mean s",
               "Blob/Direct"});
  for (cloud::Region r : cloud::kAllRegions) {
    const OnlineStats& blob = blob_times[cloud::region_index(r)];
    const OnlineStats& direct = direct_times[cloud::region_index(r)];
    const bool local = r == cloud::Region::kNorthEU;
    t.add_row({std::string(cloud::region_code(r)) + (local ? " (local)" : ""),
               TextTable::num(blob.mean(), 1), TextTable::num(blob.stddev(), 1),
               local ? "-" : TextTable::num(direct.mean(), 1),
               local ? "-" : TextTable::num(blob.mean() / direct.mean(), 2)});
  }
  print_table(t);
  print_note(
      "\nShape check: staging 100 MB into the blob service is consistently "
      "slower and markedly more variable than a raw TCP transfer of the same "
      "bytes — and this is only the WRITE phase; a full relay adds the read.");
}

}  // namespace
}  // namespace sage::bench

int main(int argc, char** argv) {
  sage::bench::BenchContext ctx(argc, argv, "fig2_blob_staging", "Fig 2",
                                "Blob staging (write phase) vs direct streaming, 100 MB");
  sage::bench::run();
  return ctx.finish();
}
