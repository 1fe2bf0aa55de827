// Fig 6 — The cost/time tradeoff of multi-VM transfers.
//
// 1 GB from North EU to North US with 1..10 sender VMs: for each
// configuration the bench reports the *measured* transfer time and the
// *billed* cost (VM-seconds actually held + egress), next to the model's
// predictions, and marks the knee the tradeoff solver picks. Because VMs
// are billed for the (shrinking) duration of the transfer, cost grows far
// slower than linearly — using 3-5 VMs buys large time savings almost for
// free, the paper's central cost observation.
#include "bench_util.hpp"
#include "model/cost_model.hpp"
#include "model/tradeoff.hpp"
#include "net/transfer.hpp"

namespace sage::bench {
namespace {

struct Outcome {
  SimDuration time;
  Money cost;
};

Outcome run_one(int vms, std::uint64_t seed) {
  World world(seed);
  auto& provider = *world.provider;
  // Billing accrues with held time, so a snapshot at the (single) provision
  // instant is zero regardless of how many VMs exist yet.
  const cloud::CostReport before = provider.cost_report();
  const LaneFan fan = provision_fan(provider, cloud::Region::kNorthEU,
                                    cloud::Region::kNorthUS, vms);

  net::TransferConfig config;
  config.streams_per_hop = 1;  // isolate the node-count effect
  Outcome out;
  const net::TransferResult result = run_transfer(world, Bytes::gb(1), fan.lanes, config);
  out.time = result.elapsed();
  harness::report_task_records(static_cast<std::uint64_t>(result.stats.chunks_delivered));

  // Release everything at completion: the bill reflects exactly the
  // transfer's resource-holding.
  provider.release_all();
  out.cost = (provider.cost_report() - before).total();
  return out;
}

struct Cell {
  int vms = 0;
  std::uint64_t seed = 0;
};

// ---------------------------------------------------------------------------
// Sharded scenario mode (--shards N): the same cost/time question asked
// through the *full control plane* — monitoring, tradeoff solver, multipath
// planner, adaptive transfer — running region-sharded on
// sim::ShardedSimEngine (core::ShardedSage). The stable topology plus
// shard-local lanes make every printed value shard-count invariant, so the
// figure golden holds one sharded table for S=1 and S=4; only the wall
// clock changes with S.

struct ShardedCell {
  double lambda = 0.0;
};

struct ShardedOutcome {
  bool ok = false;
  SimDuration time;
  int nodes = 0;
  int lanes = 0;
  SimDuration predicted_time;
  Money predicted_cost;
  std::uint64_t chunks = 0;
  bool epochs_ok = false;
};

ShardedOutcome run_one_sharded(const ShardedCell& c, int shards) {
  SageDeployOptions opts;
  opts.regions = cloud::stable_topology().regions();
  auto sage = deploy_sharded_sage(
      std::make_shared<const cloud::Topology>(cloud::stable_topology()), 66, opts,
      shards);

  model::Tradeoff tradeoff;
  tradeoff.lambda = c.lambda;
  const stream::SendOutcome out = sharded_send_blocking(
      *sage, cloud::Region::kNorthEU, cloud::Region::kNorthUS, Bytes::gb(1), tradeoff);

  ShardedOutcome r;
  r.ok = out.ok;
  r.time = out.elapsed;
  const core::SageEngine& owner = sage->lane(sage->lane_of(cloud::Region::kNorthEU));
  const core::SendRecord& rec = owner.history().back();
  if (rec.estimate) {
    r.nodes = rec.estimate->nodes;
    r.predicted_time = rec.estimate->time;
    r.predicted_cost = rec.estimate->total_cost();
  }
  r.lanes = rec.lanes_used;
  r.chunks = static_cast<std::uint64_t>(rec.stats.chunks_delivered);
  r.epochs_ok = sage->epochs_consistent();
  harness::report_task_records(r.chunks);
  harness::report_task_shards(static_cast<int>(sage->plan().shards));
  return r;
}

void run_sharded(BenchContext& ctx, int shards) {
  const std::vector<ShardedCell> grid =
      ctx.smoke() ? std::vector<ShardedCell>{{0.0}, {0.5}, {1.0}}
                  : std::vector<ShardedCell>{{0.0}, {0.25}, {0.5}, {0.75}, {1.0}};
  const auto results = ctx.sweep("tradeoff-sharded", grid, [shards](const ShardedCell& c) {
    return run_one_sharded(c, shards);
  });

  TextTable t({"Lambda", "ok", "Measured time s", "Plan nodes", "Lanes",
               "Predicted time s", "Predicted cost $", "Chunks", "Epochs"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const ShardedOutcome& r = results[i];
    t.add_row({TextTable::num(grid[i].lambda, 2), r.ok ? "yes" : "no",
               TextTable::num(r.time.to_seconds(), 1), std::to_string(r.nodes),
               std::to_string(r.lanes), TextTable::num(r.predicted_time.to_seconds(), 1),
               TextTable::num(r.predicted_cost.to_usd(), 4), std::to_string(r.chunks),
               r.epochs_ok ? "lock-step" : "DIVERGED"});
  }
  print_table(t);
  print_note(
      "\nSharded scenario mode (stable topology, full control plane on the "
      "region-sharded engine): monitoring samples fan out to every lane at a "
      "uniform report delay, transfers run shard-local lanes with ephemeral "
      "endpoints, and per-lane sample epochs stay in lock-step — so every "
      "value above is shard-count and worker-count invariant; the figure "
      "golden pins this table at S=1 and S=4. The wall clock (--json) is "
      "where S shows up.");
}

void run(BenchContext& ctx) {
  if (ctx.shards() > 0) {
    run_sharded(ctx, ctx.shards());
    return;
  }
  // Model predictions for the same sweep.
  model::CostModel model(cloud::PricingModel{}, model::ModelParams{});
  model::TradeoffSolver solver(model);
  model::TradeoffInputs inputs;
  inputs.size = Bytes::gb(1);
  inputs.link = monitor::LinkEstimate{2.7, 0.3, 50};
  inputs.src = cloud::Region::kNorthEU;
  inputs.dst = cloud::Region::kNorthUS;
  inputs.max_nodes = 10;
  const auto frontier = solver.frontier(inputs);
  const auto knee = solver.knee(inputs);

  // Measure each configuration across three seeds (cloud variability is
  // real; the bill curve's minimum should not be a one-seed artifact).
  const int max_vms = ctx.smoke() ? 3 : 10;
  const std::vector<std::uint64_t> seeds =
      ctx.smoke() ? std::vector<std::uint64_t>{66} : std::vector<std::uint64_t>{66, 67, 68};
  std::vector<Cell> grid;
  for (int vms = 1; vms <= max_vms; ++vms) {
    for (std::uint64_t seed : seeds) grid.push_back({vms, seed});
  }
  const auto runs =
      ctx.sweep("tradeoff", grid, [](const Cell& c) { return run_one(c.vms, c.seed); });

  std::array<Outcome, 10> measured;
  int min_bill_vms = 1;
  for (int vms = 1; vms <= max_vms; ++vms) {
    double time_s = 0.0;
    double cost_usd = 0.0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (grid[i].vms != vms) continue;
      time_s += runs[i].time.to_seconds();
      cost_usd += runs[i].cost.to_usd();
    }
    const double n = static_cast<double>(seeds.size());
    measured[static_cast<std::size_t>(vms - 1)] =
        Outcome{SimDuration::seconds(time_s / n), Money::usd(cost_usd / n)};
    if (measured[static_cast<std::size_t>(vms - 1)].cost <
        measured[static_cast<std::size_t>(min_bill_vms - 1)].cost) {
      min_bill_vms = vms;
    }
  }

  TextTable t({"VMs", "Measured time s", "Billed cost $", "Predicted time s",
               "Predicted cost $", ""});
  for (int vms = 1; vms <= max_vms; ++vms) {
    const Outcome& o = measured[static_cast<std::size_t>(vms - 1)];
    const auto& est = frontier[static_cast<std::size_t>(vms - 1)];
    std::string marker;
    if (vms == knee.nodes) marker += "<- model knee ";
    if (vms == min_bill_vms) marker += "<- min bill";
    t.add_row({std::to_string(vms), TextTable::num(o.time.to_seconds(), 0),
               TextTable::num(o.cost.to_usd(), 4),
               TextTable::num(est.time.to_seconds(), 0),
               TextTable::num(est.total_cost().to_usd(), 4), marker});
  }
  print_table(t);
  print_note(
      "\nShape check: time falls steeply up to ~5 VMs then flattens (per-path "
      "and NIC saturation). Because every VM is billed only for the "
      "(shrinking) transfer duration, the measured bill *decreases* through "
      "the mid-range — smaller transfer times reflect on smaller costs — and "
      "turns back up once time has flattened, putting the best-bill point in "
      "the 5-9 VM band; the model's conservative knee marks where it stops "
      "recommending more nodes on prediction alone.");
}

}  // namespace
}  // namespace sage::bench

int main(int argc, char** argv) {
  sage::bench::BenchContext ctx(argc, argv, "fig6_cost_tradeoff", "Fig 6",
                                "Cost/time tradeoff vs VM count (1 GB, NEU -> NUS)");
  sage::bench::run(ctx);
  return ctx.finish();
}
