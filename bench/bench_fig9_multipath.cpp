// Fig 9 — Multi-datacenter path transfer strategies.
//
// Sustained NEU -> NUS data movement with nodes spread across all six
// sites, four strategies compared:
//   * DirectLink            — every node sends on the direct pair link;
//   * ShortestPath static   — the widest path is chosen once at start;
//   * ShortestPath dynamic  — the widest path is re-chosen every minute
//                             from the live monitoring map;
//   * SAGE multi-path       — Algorithm-1 widening across multiple paths,
//                             re-planned every minute.
// (a) cumulative achieved throughput over a 10-minute window at 25 nodes;
// (b) 10-minute throughput as the node budget grows from 5 to 25.
#include "bench_util.hpp"
#include "baselines/gateway.hpp"
#include "monitor/monitoring.hpp"
#include "net/transfer.hpp"
#include "sched/multipath.hpp"

namespace sage::bench {
namespace {

constexpr cloud::Region kSrc = cloud::Region::kNorthEU;
constexpr cloud::Region kDst = cloud::Region::kNorthUS;

enum class Strategy { kDirect, kStatic, kDynamic, kSage };

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kDirect:
      return "DirectLink";
    case Strategy::kStatic:
      return "ShortestPath static";
    case Strategy::kDynamic:
      return "ShortestPath dynamic";
    case Strategy::kSage:
      return "SAGE multi-path";
  }
  return "?";
}

constexpr int kSourceEndpoints = 4;  // the sending deployment's data holders

/// Expand a plan into transfer lanes using pool VMs (mirrors the engine's
/// lane construction). `slot` gives each source endpoint a disjoint helper
/// index range so concurrent transfers use distinct forwarder VMs.
std::vector<net::Lane> lanes_for(baselines::GatewayPool& pool,
                                 const sched::MultiPathPlan& plan, int slot,
                                 int rotation = 0) {
  const cloud::VmId src_gw = pool.gateways(kSrc, kSourceEndpoints)[
      static_cast<std::size_t>(slot)];
  const cloud::VmId dst_gw = pool.gateways(kDst, kSourceEndpoints)[
      static_cast<std::size_t>(slot)];
  std::vector<net::Lane> lanes;
  std::array<int, cloud::kRegionCount> cursor{};
  // Each endpoint has its own helper index range; a nonzero rotation steps
  // to a fresh set of VMs (the decision manager replacing nodes whose
  // performance dropped).
  cursor.fill(slot * 40 + rotation * 10);
  bool first_lane = true;
  for (const sched::PlannedPath& p : plan.paths) {
    for (int w = 0; w < p.width; ++w) {
      net::Lane lane;
      lane.path.push_back(src_gw);
      if (!first_lane) {
        const int idx = cursor[cloud::region_index(kSrc)]++;
        lane.path.push_back(pool.helpers(kSrc, idx + 1)[static_cast<std::size_t>(idx)]);
      }
      first_lane = false;
      for (std::size_t i = 1; i + 1 < p.route.regions.size(); ++i) {
        const cloud::Region hop = p.route.regions[i];
        const int idx = cursor[cloud::region_index(hop)]++;
        lane.path.push_back(pool.helpers(hop, idx + 1)[static_cast<std::size_t>(idx)]);
      }
      lane.path.push_back(dst_gw);
      lanes.push_back(std::move(lane));
    }
  }
  if (lanes.empty()) lanes = net::direct_lane(src_gw, dst_gw);
  return lanes;
}

struct RunSeries {
  std::vector<double> cumulative_mbps;  // per minute
  double final_mbps = 0.0;
};

/// Sustained deployment-to-deployment movement: the sending side's data is
/// spread over kSourceEndpoints holder VMs (as in the real system, where
/// the deployment's nodes each own a shard), each driving its share of the
/// node budget through the chosen strategy.
RunSeries run_strategy(Strategy strategy, int node_budget, std::uint64_t seed,
                       int minutes = 10) {
  World world(seed);
  auto& provider = *world.provider;
  baselines::GatewayPool pool(provider);

  monitor::MonitorConfig mconfig;
  mconfig.probe_interval = SimDuration::minutes(1);
  monitor::MonitoringService monitoring(provider, mconfig);
  for (cloud::Region r : cloud::kAllRegions) {
    monitoring.register_agent(r, provider.provision(r, cloud::VmSize::kSmall).id);
  }
  monitoring.start();
  world.run_for(SimDuration::minutes(15));  // warm the map

  sched::Inventory inventory;
  inventory.fill(8);
  sched::MultiPathPlanner planner;

  auto make_plan = [&](int budget_share) {
    const auto matrix = monitoring.snapshot();
    switch (strategy) {
      case Strategy::kDirect:
        return planner.direct_plan(matrix, kSrc, kDst, inventory, budget_share);
      case Strategy::kStatic:
      case Strategy::kDynamic:
        return planner.widest_single_path_plan(matrix, kSrc, kDst, inventory,
                                               budget_share);
      case Strategy::kSage:
        return planner.plan(matrix, kSrc, kDst, inventory, budget_share);
    }
    return sched::MultiPathPlan{};
  };

  net::TransferConfig config;
  config.streams_per_hop = 2;

  std::vector<int> shares;
  for (int i = 0; i < kSourceEndpoints; ++i) {
    const int share = node_budget / kSourceEndpoints +
                      (i < node_budget % kSourceEndpoints ? 1 : 0);
    if (share > 0) shares.push_back(share);
  }
  std::vector<std::unique_ptr<net::GeoTransfer>> transfers;
  std::vector<sched::MultiPathPlan> current_plans;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    current_plans.push_back(make_plan(shares[i]));
    transfers.push_back(std::make_unique<net::GeoTransfer>(
        provider, Bytes::gb(100),
        lanes_for(pool, current_plans.back(), static_cast<int>(i)), config,
        [](const net::TransferResult&) {}));
    transfers.back()->start();
  }

  RunSeries out;
  const SimTime began = world.engine.now();
  std::vector<int> rotation(transfers.size(), 0);
  std::vector<Bytes> prev_total(transfers.size());
  std::vector<std::vector<Bytes>> prev_lane_bytes(transfers.size());
  for (int minute = 1; minute <= minutes; ++minute) {
    world.run_for(SimDuration::minutes(1));
    const double elapsed_s = (world.engine.now() - began).to_seconds();
    double delivered_mb = 0.0;
    for (const auto& t : transfers) delivered_mb += t->delivered().to_mb();
    out.cumulative_mbps.push_back(delivered_mb / elapsed_s);
    const bool adaptive = strategy == Strategy::kDynamic || strategy == Strategy::kSage;
    if (adaptive) {
      for (std::size_t i = 0; i < transfers.size(); ++i) {
        if (transfers[i]->finished()) continue;
        // (1) Node-level health: a lane delivering far below its siblings
        // since the last check sits on a degraded VM; replace the node set
        // (the DM's "detect performance drops and replace" loop).
        const auto& lane_bytes = transfers[i]->lane_bytes();
        bool sick_lane = false;
        if (prev_lane_bytes[i].size() == lane_bytes.size() && lane_bytes.size() > 1) {
          double mean_delta = 0.0;
          std::vector<double> deltas;
          for (std::size_t l = 0; l < lane_bytes.size(); ++l) {
            const double d = (lane_bytes[l] - prev_lane_bytes[i][l]).to_mb();
            deltas.push_back(d);
            mean_delta += d;
          }
          mean_delta /= static_cast<double>(deltas.size());
          for (double d : deltas) {
            if (mean_delta > 1.0 && d < 0.6 * mean_delta) sick_lane = true;
          }
        }
        // (2) Map-level: the fresh snapshot changed the plan itself.
        const auto plan = make_plan(shares[i]);
        const bool plan_changed =
            !plan.empty() && !sched::MultiPathPlanner::same_plan(plan, current_plans[i]);
        if (sick_lane || plan_changed) {
          if (sick_lane) ++rotation[i];
          const auto& next = plan.empty() ? current_plans[i] : plan;
          transfers[i]->reset_lanes(
              lanes_for(pool, next, static_cast<int>(i), rotation[i]));
          if (!plan.empty()) current_plans[i] = plan;
          prev_lane_bytes[i].clear();
          continue;
        }
        prev_lane_bytes[i] = lane_bytes;
      }
    }
  }
  out.final_mbps = out.cumulative_mbps.empty() ? 0.0 : out.cumulative_mbps.back();
  for (auto& t : transfers) t->cancel();
  return out;
}

constexpr Strategy kAllStrategies[] = {Strategy::kDirect, Strategy::kStatic,
                                       Strategy::kDynamic, Strategy::kSage};

std::vector<std::string> strategy_headers(const char* first) {
  std::vector<std::string> headers = {first};
  for (Strategy s : kAllStrategies) headers.emplace_back(strategy_name(s));
  return headers;
}

void part_a(BenchContext& ctx) {
  print_note("(a) cumulative throughput over time, 25 nodes (MB/s):");
  const int minutes = ctx.smoke() ? 3 : 10;
  const std::vector<Strategy> grid(std::begin(kAllStrategies), std::end(kAllStrategies));
  const auto series = ctx.sweep("timeline", grid, [minutes](const Strategy& s) {
    return run_strategy(s, 25, /*seed=*/91, minutes);
  });
  TextTable t(strategy_headers("Minute"));
  for (std::size_t minute = 0; minute < static_cast<std::size_t>(minutes); ++minute) {
    std::vector<std::string> row = {std::to_string(minute + 1)};
    for (const RunSeries& s : series) row.push_back(TextTable::num(s.cumulative_mbps[minute], 2));
    t.add_row(row);
  }
  print_table(t);
}

void part_b(BenchContext& ctx) {
  print_note("\n(b) 10-minute throughput vs node budget (MB/s):");
  const std::vector<int> budgets =
      ctx.smoke() ? std::vector<int>{5, 15} : std::vector<int>{5, 10, 15, 20, 25};
  struct Cell {
    int nodes;
    Strategy strategy;
  };
  std::vector<Cell> grid;
  for (int nodes : budgets) {
    for (Strategy s : kAllStrategies) grid.push_back({nodes, s});
  }
  const auto series = ctx.sweep("budget", grid, [](const Cell& c) {
    return run_strategy(c.strategy, c.nodes, /*seed=*/92);
  });
  TextTable t(strategy_headers("Nodes"));
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    std::vector<std::string> row = {std::to_string(budgets[i])};
    for (std::size_t j = 0; j < std::size(kAllStrategies); ++j) {
      row.push_back(TextTable::num(series[i * std::size(kAllStrategies) + j].final_mbps, 2));
    }
    t.add_row(row);
  }
  print_table(t);
  print_note(
      "\nShape check: with few nodes the strategies are nearly "
      "indistinguishable (one path absorbs the whole budget); as the budget "
      "grows, the single-path strategies saturate their one route while "
      "SAGE's multi-path placement keeps adding capacity (~2x at 25 nodes). "
      "Dynamic equals static whenever the window stays quiet — its "
      "node-replacement and re-routing only fire when a lane degrades or "
      "the map's widest path actually moves (the failure-injection tests "
      "exercise those paths deterministically).");
}

}  // namespace
}  // namespace sage::bench

int main(int argc, char** argv) {
  sage::bench::BenchContext ctx(argc, argv, "fig9_multipath", "Fig 9",
                                "Multi-datacenter path strategies (NEU -> NUS)");
  sage::bench::part_a(ctx);
  sage::bench::part_b(ctx);
  return ctx.finish();
}
