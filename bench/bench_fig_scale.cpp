// Fig S — Planet-scale sparse fabric: 64 and 256 regions, 10k+ flows.
//
// The paper's evaluation stops at 6 Azure regions; this figure stresses the
// runtime-parameterized topology layer far past that. Each grid point builds
// a generated ring-of-continents world (contiguous continent blocks with an
// intra-continent full mesh and a gateway ring), spreads a large flow
// population round-robin over the *declared* WAN pairs, and drives the
// fabric for a fixed virtual window. Everything printed is simulator state
// (flow completions, delivered volume, active-link counts), so stdout is
// byte-identical at any SAGE_BENCH_THREADS — tests/golden/figures.json pins
// it at 1 and 4 threads. Wall-clock cost per point rides the --json
// record; EXPERIMENTS.md tabulates it as the sub-quadratic scaling evidence:
// fabric state and settlement passes are sized by declared/active links, so
// cost per flow stays flat from 64 to 256 regions instead of growing with
// the 4096x larger dense pair grid.
//
// Sharded mode (--shards N, default off): the same grid runs on the
// region-sharded ShardedSimEngine — regions partitioned across N shards
// (cloud::plan_shards), one event lane + one fabric per shard, flows owned
// by their source region's shard, and depth-1 relay traffic posted
// cross-shard at WAN latency (>= the conservative lookahead horizon by
// construction, so the lock-step windows admit it). The sharded table uses a
// *stable* topology — per-connection hiccup draws consume fabric RNG in flow
// start order, which necessarily differs across shardings; zeroed
// variability removes all RNG influence on rates, making the printed table
// byte-identical across any shard count AND any worker count. The figure
// golden pins the sharded table at shards 1 and 4.
#include "bench_util.hpp"

#include "cloud/fabric.hpp"
#include "simcore/sharded_engine.hpp"

namespace sage::bench {
namespace {

struct Cell {
  std::size_t regions = 0;
  int flows = 0;
};

struct RunResult {
  std::size_t wan_pairs = 0;     // declared directed WAN pairs
  std::size_t active_links = 0;  // pairs carrying >= 1 flow after activation
  int completed = 0;
  Bytes delivered;
  double window_s = 0.0;
};

RunResult run_one(const Cell& c) {
  sim::SimEngine engine;
  cloud::Fabric fabric(engine,
                       cloud::ring_of_continents(c.regions, 8, /*stable=*/false),
                       /*seed=*/9000 + c.regions * 13 + static_cast<std::size_t>(c.flows));

  // Flows only between declared WAN pairs: the sparse fabric has no state —
  // and no routes — for unlinked region pairs.
  std::vector<std::pair<cloud::Region, cloud::Region>> pairs;
  for (const cloud::Topology::Edge& e : fabric.topology().edges()) {
    if (e.src != e.dst) pairs.emplace_back(e.src, e.dst);
  }

  RunResult out;
  out.wan_pairs = pairs.size();
  for (int i = 0; i < c.flows; ++i) {
    const auto& [a, b] = pairs[static_cast<std::size_t>(i) % pairs.size()];
    const auto src = fabric.add_node(a, ByteRate::megabits_per_sec(100),
                                     ByteRate::megabits_per_sec(100));
    const auto dst = fabric.add_node(b, ByteRate::megabits_per_sec(100),
                                     ByteRate::megabits_per_sec(100));
    // Deterministic payload spread so completions stagger across the window
    // instead of draining the fabric in one settle burst.
    const Bytes payload = Bytes::mb(100 + (i % 7) * 50);
    fabric.start_flow(src, dst, payload, {}, [&out](const cloud::FlowResult& r) {
      if (!r.ok()) return;
      ++out.completed;
      out.delivered = out.delivered + r.transferred;
    });
  }
  engine.run_until(engine.now() + SimDuration::seconds(1));  // activate flows
  for (const auto& [a, b] : pairs) {
    if (fabric.pair_flow_count(a, b) > 0) ++out.active_links;
  }

  const SimDuration window = SimDuration::minutes(10);
  out.window_s = window.to_seconds();
  engine.run_until(engine.now() + window);
  return out;
}

// -- Sharded mode ------------------------------------------------------------

struct ShardResult {
  std::size_t wan_pairs = 0;
  std::size_t active_links = 0;
  int completed = 0;  // initial flows
  int relays = 0;     // depth-1 return flows
  Bytes delivered;    // initial + relay bytes
  double window_s = 0.0;
};

// Lane-indexed accumulator: each lane's callbacks write only their own slot
// during a window, so the parallel run needs no locks; padded so neighbouring
// slots never share a cache line.
struct alignas(64) LaneTally {
  int completed = 0;
  int relays = 0;
  Bytes delivered;
};

ShardResult run_one_sharded(const Cell& c, int shards) {
  const auto topo = std::make_shared<const cloud::Topology>(
      cloud::ring_of_continents(c.regions, 8, /*stable=*/true));
  const cloud::ShardPlan plan = cloud::plan_shards(*topo, static_cast<std::size_t>(shards));
  sim::ShardedSimEngine engine(
      sim::ShardedSimEngine::Options{plan.shards, plan.lookahead, true, 0});
  const auto lane_of = [&](cloud::Region r) -> std::size_t { return plan.shard(r); };

  // One fabric per lane over ONE shared immutable topology. A directed pair's
  // flows all live in the fabric of the pair's src-region shard, and per-flow
  // fresh endpoints keep different pairs on disjoint link sets, so per-pair
  // max-min settlement is identical to the single-fabric run at any S.
  const std::uint64_t seed = 9000 + c.regions * 13 + static_cast<std::size_t>(c.flows);
  std::vector<std::unique_ptr<cloud::Fabric>> fabrics;
  for (std::size_t l = 0; l < engine.lane_count(); ++l) {
    fabrics.push_back(std::make_unique<cloud::Fabric>(engine.shard(l), topo, seed + l));
  }

  std::vector<std::pair<cloud::Region, cloud::Region>> pairs;
  for (const cloud::Topology::Edge& e : topo->edges()) {
    if (e.src != e.dst) pairs.emplace_back(e.src, e.dst);
  }

  std::vector<LaneTally> tally(engine.lane_count());
  const auto nic = ByteRate::megabits_per_sec(100);
  for (int i = 0; i < c.flows; ++i) {
    const auto [a, b] = pairs[static_cast<std::size_t>(i) % pairs.size()];
    const std::size_t sa = plan.shard(a);
    const std::size_t sb = plan.shard(b);
    cloud::Fabric& owner = *fabrics[lane_of(a)];
    const auto src = owner.add_node(a, nic, nic);
    const auto dst = owner.add_node(b, nic, nic);
    const Bytes payload = Bytes::mb(100 + (i % 7) * 50);
    const Bytes relay_payload = Bytes::mb(60 + (i % 5) * 30);
    // Cross-shard hop: the declared one-way latency of (a, b), which is
    // >= plan.lookahead by definition whenever a and b sit on different
    // shards — the lock-step window admits it without ever deadlocking.
    const SimDuration hop = topo->link(a, b).latency;
    owner.start_flow(src, dst, payload, {},
                     [&engine, &fabrics, &tally, &lane_of, a, b, sa, sb, hop,
                      relay_payload, nic](const cloud::FlowResult& r) {
                       if (!r.ok()) return;
                       LaneTally& t = tally[lane_of(a)];
                       ++t.completed;
                       t.delivered += r.transferred;
                       // Depth-1 relay: the payload bounces back b -> a one
                       // WAN hop later, landing on b's shard — the cross-shard
                       // traffic this mode exists to exercise.
                       engine.post(sa, sb, hop,
                                   [&fabrics, &tally, &lane_of, a, b, relay_payload, nic] {
                                     cloud::Fabric& f = *fabrics[lane_of(b)];
                                     const auto s2 = f.add_node(b, nic, nic);
                                     const auto d2 = f.add_node(a, nic, nic);
                                     f.start_flow(s2, d2, relay_payload, {},
                                                  [&tally, &lane_of,
                                                   b](const cloud::FlowResult& rr) {
                                                    if (!rr.ok()) return;
                                                    LaneTally& t2 = tally[lane_of(b)];
                                                    ++t2.relays;
                                                    t2.delivered += rr.transferred;
                                                  });
                                   });
                     });
  }

  ShardResult out;
  out.wan_pairs = pairs.size();
  engine.run_until(engine.now() + SimDuration::seconds(1));  // activate flows
  for (const auto& [a, b] : pairs) {
    if (fabrics[lane_of(a)]->pair_flow_count(a, b) > 0) ++out.active_links;
  }

  const SimDuration window = SimDuration::minutes(10);
  out.window_s = window.to_seconds();
  engine.run_until(engine.now() + window);
  for (const LaneTally& t : tally) {
    out.completed += t.completed;
    out.relays += t.relays;
    out.delivered += t.delivered;
  }
  harness::report_task_shards(static_cast<int>(plan.shards));
  return out;
}

void run_sharded(BenchContext& ctx, const std::vector<Cell>& grid, int shards) {
  const auto results = ctx.sweep("scale-sharded", grid, [shards](const Cell& c) {
    return run_one_sharded(c, shards);
  });

  TextTable t({"Regions", "Flows", "WAN pairs", "Active links", "Completed",
               "Relays", "Delivered", "Agg MB/s"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const ShardResult& r = results[i];
    t.add_row({std::to_string(grid[i].regions), std::to_string(grid[i].flows),
               std::to_string(r.wan_pairs), std::to_string(r.active_links),
               std::to_string(r.completed), std::to_string(r.relays),
               to_string(r.delivered),
               TextTable::num(r.delivered.to_mb() / r.window_s, 1)});
  }
  print_table(t);
  print_note(
      "\nSharded mode (stable topology, region-sharded engine): every value "
      "above is shard-count and worker-count invariant — flows are owned by "
      "their source region's shard, depth-1 relays cross shards at WAN "
      "latency (>= the conservative lookahead window), and per-pair max-min "
      "settlement is independent across pairs, so S in {1,2,4,...} prints "
      "this exact table. The figure golden pins it at shards 1 and 4 and "
      "harness threads 1 and 4.");
}

void run(BenchContext& ctx) {
  const std::vector<Cell> grid =
      ctx.smoke() ? std::vector<Cell>{{16, 2000}, {64, 2000}}
                  : std::vector<Cell>{{64, 10000}, {128, 10000}, {256, 10000},
                                      {256, 20000}};

  if (ctx.shards() > 0) {
    run_sharded(ctx, grid, ctx.shards());
    return;
  }

  const auto results = ctx.sweep("scale", grid, [](const Cell& c) { return run_one(c); });

  TextTable t({"Regions", "Flows", "WAN pairs", "Active links", "Completed",
               "Delivered", "Agg MB/s"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const RunResult& r = results[i];
    t.add_row({std::to_string(grid[i].regions), std::to_string(grid[i].flows),
               std::to_string(r.wan_pairs), std::to_string(r.active_links),
               std::to_string(r.completed), to_string(r.delivered),
               TextTable::num(r.delivered.to_mb() / r.window_s, 1)});
  }
  print_table(t);
  print_note(
      "\nShape check: every declared WAN pair carries flows (active == "
      "declared), and the declared set grows ~linearly in region count "
      "(continent meshes + gateway ring), never as the N^2 dense grid. "
      "Wall cost per point (see --json record) tracks live flow-ticks, not "
      "regions: growing 64 -> 256 regions at a fixed flow population makes "
      "the point CHEAPER (flows spread over ~17x more links, contend less, "
      "finish sooner), while doubling flows at 256 regions roughly doubles "
      "cost. O(active), as designed — a dense N^2 fabric would instead pay "
      "a 4096x larger state and settle sweep at 256 regions.");
}

}  // namespace
}  // namespace sage::bench

int main(int argc, char** argv) {
  sage::bench::BenchContext ctx(argc, argv, "fig_scale", "Fig S",
                                "Planet scale: sparse fabric at 64-256 regions");
  sage::bench::run(ctx);
  return ctx.finish();
}
