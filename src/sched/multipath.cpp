#include "sched/multipath.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace sage::sched {

MultiPathPlanner::MultiPathPlanner(PlannerParams params) : params_(params) {
  SAGE_CHECK(params_.node_gain_decay > 0.0 && params_.node_gain_decay <= 1.0);
  SAGE_CHECK(params_.max_width >= 1);
}

void MultiPathPlanner::set_obs(obs::Observability* o) {
  if (o == nullptr) {
    obs_plan_calls_ = nullptr;
    obs_paths_chosen_ = nullptr;
    obs_paths_rejected_ = nullptr;
    obs_widen_steps_ = nullptr;
    return;
  }
  auto& m = o->metrics();
  obs_plan_calls_ = m.counter("sched.plan.calls");
  obs_paths_chosen_ = m.counter("sched.paths.chosen");
  obs_paths_rejected_ = m.counter("sched.paths.rejected");
  obs_widen_steps_ = m.counter("sched.widen.steps");
}

double MultiPathPlanner::path_throughput(double bottleneck_mbps, int width) const {
  SAGE_CHECK(width >= 0);
  const double g = params_.node_gain_decay;
  if (g >= 1.0) return bottleneck_mbps * static_cast<double>(width);
  return bottleneck_mbps * (1.0 - std::pow(g, width)) / (1.0 - g);
}

double MultiPathPlanner::marginal_throughput(double bottleneck_mbps, int width) const {
  SAGE_CHECK(width >= 1);
  return bottleneck_mbps * std::pow(params_.node_gain_decay, width - 1);
}

int MultiPathPlanner::width_unit_cost(const RegionPath& route) {
  // One sender lane in the source region plus one forwarder per
  // intermediate datacenter.
  return 1 + static_cast<int>(route.intermediate_count());
}

int MultiPathPlanner::max_width_for(const RegionPath& route, const Inventory& inv) {
  // Source-region helpers bound the number of lanes; the very first lane of
  // a plan is the source VM itself and consumes no helper, which the caller
  // accounts for by passing an inventory that still includes that slack.
  int cap = inv[cloud::region_index(route.regions.front())];
  for (std::size_t i = 1; i + 1 < route.regions.size(); ++i) {
    cap = std::min(cap, inv[cloud::region_index(route.regions[i])]);
  }
  return std::max(cap, 0);
}

void MultiPathPlanner::consume(const RegionPath& route, int width, Inventory& inv) {
  inv[cloud::region_index(route.regions.front())] -= width;
  for (std::size_t i = 1; i + 1 < route.regions.size(); ++i) {
    inv[cloud::region_index(route.regions[i])] -= width;
  }
}

MultiPathPlan MultiPathPlanner::plan(const monitor::ThroughputMatrix& matrix,
                                     cloud::Region src, cloud::Region dst,
                                     const Inventory& inventory, int node_budget) const {
  SAGE_CHECK(node_budget >= 1);
  MultiPathPlan out;
  if (obs_plan_calls_ != nullptr) obs_plan_calls_->add();

  // Working inventory. The source VM itself provides the first lane, which
  // we represent as one free helper slot in the source region.
  Inventory inv = inventory;
  ++inv[cloud::region_index(src)];
  bool direct_used = false;
  const std::size_t n = std::max({matrix.region_count(),
                                  cloud::region_index(src) + 1,
                                  cloud::region_index(dst) + 1});
  // Once a path is opened, its intermediate datacenters leave the candidate
  // pool (the algorithm widens an existing path rather than rediscovering
  // the same route as another nominally-new path).
  RegionMask excluded;
  excluded.fill(false);

  auto query = [&](bool exclude_direct) {
    PathQueryOptions o;
    o.usable.fill(false);
    for (std::size_t i = 0; i < n; ++i) {
      o.usable[i] = inv[i] > 0 && !excluded[i];
    }
    o.exclude_direct_edge = exclude_direct || direct_used;
    return widest_path(matrix, src, dst, o);
  };

  auto current = query(false);
  while (current && out.nodes_used < node_budget) {
    const RegionPath& route = *current;
    const int unit = width_unit_cost(route);
    const int inventory_cap =
        std::min(params_.max_width, max_width_for(route, inv));
    if (inventory_cap < 1 || out.nodes_used + unit > node_budget) {
      // A viable route existed but the budget/inventory could not seat it.
      if (obs_paths_rejected_ != nullptr) obs_paths_rejected_->add();
      break;
    }

    // The next-best alternative, with this route's intermediates removed —
    // its per-node throughput is the bar each additional widening node (or
    // node group, for relay paths) must clear.
    PathQueryOptions alt;
    alt.usable.fill(false);
    for (std::size_t i = 0; i < n; ++i) {
      alt.usable[i] = inv[i] > 0 && !excluded[i];
      for (std::size_t k = 1; k + 1 < route.regions.size(); ++k) {
        if (cloud::region_index(route.regions[k]) == i) alt.usable[i] = false;
      }
    }
    alt.exclude_direct_edge = route.is_direct() || direct_used;
    const auto next = widest_path(matrix, src, dst, alt);
    // The alternative is a candidate evaluated at this decision point; when
    // it exists and the loop widens the current route instead, it was
    // considered and passed over (it may still be opened next iteration).
    if (next && obs_paths_rejected_ != nullptr) obs_paths_rejected_->add();
    const double next_norm =
        next ? path_throughput(next->bottleneck_mbps, 1) /
                   static_cast<double>(width_unit_cost(*next))
             : 0.0;

    int width = 1;
    out.nodes_used += unit;
    // Compare like with like: the widening step's marginal throughput per
    // node against the alternative path's throughput per node.
    while (width < inventory_cap && out.nodes_used + unit <= node_budget &&
           marginal_throughput(route.bottleneck_mbps, width + 1) /
                   static_cast<double>(unit) >=
               next_norm) {
      ++width;
      out.nodes_used += unit;
      if (obs_widen_steps_ != nullptr) obs_widen_steps_->add();
    }

    consume(route, width, inv);
    if (route.is_direct()) direct_used = true;
    for (std::size_t k = 1; k + 1 < route.regions.size(); ++k) {
      excluded[cloud::region_index(route.regions[k])] = true;
    }
    out.paths.push_back(
        PlannedPath{route, width, path_throughput(route.bottleneck_mbps, width)});
    out.total_mbps += out.paths.back().predicted_mbps;
    if (obs_paths_chosen_ != nullptr) obs_paths_chosen_->add();

    current = query(false);
  }
  return out;
}

MultiPathPlan MultiPathPlanner::direct_plan(const monitor::ThroughputMatrix& matrix,
                                            cloud::Region src, cloud::Region dst,
                                            const Inventory& inventory,
                                            int node_budget) const {
  SAGE_CHECK(node_budget >= 1);
  MultiPathPlan out;
  RegionPath route;
  route.regions = {src, dst};
  route.bottleneck_mbps = matrix.at(src, dst).mean_mbps;
  const int cap = std::min(node_budget, inventory[cloud::region_index(src)] + 1);
  if (cap < 1) return out;
  out.paths.push_back(PlannedPath{route, cap, path_throughput(route.bottleneck_mbps, cap)});
  out.nodes_used = cap;
  out.total_mbps = out.paths.back().predicted_mbps;
  return out;
}

MultiPathPlan MultiPathPlanner::widest_single_path_plan(
    const monitor::ThroughputMatrix& matrix, cloud::Region src, cloud::Region dst,
    const Inventory& inventory, int node_budget) const {
  SAGE_CHECK(node_budget >= 1);
  MultiPathPlan out;
  Inventory inv = inventory;
  ++inv[cloud::region_index(src)];
  PathQueryOptions o;
  o.usable.fill(false);
  const std::size_t n = std::max({matrix.region_count(),
                                  cloud::region_index(src) + 1,
                                  cloud::region_index(dst) + 1});
  for (std::size_t i = 0; i < n; ++i) {
    o.usable[i] = inv[i] > 0;
  }
  const auto route = widest_path(matrix, src, dst, o);
  if (!route) return out;
  // A width unit on a relay path costs one node per hop region; the budget
  // buys however many full units fit.
  const int affordable = std::max(node_budget / width_unit_cost(*route), 1);
  const int cap = std::min(affordable, max_width_for(*route, inv));
  if (cap < 1) return out;
  out.paths.push_back(PlannedPath{*route, cap, path_throughput(route->bottleneck_mbps, cap)});
  out.nodes_used = cap * width_unit_cost(*route);
  out.total_mbps = out.paths.back().predicted_mbps;
  return out;
}

const MultiPathPlan& PlanCache::plan(const MultiPathPlanner& planner,
                                     const monitor::ThroughputMatrix& matrix,
                                     cloud::Region src, cloud::Region dst,
                                     const Inventory& inventory, int node_budget) {
  return memo_.get(Key{matrix.epoch, src, dst, inventory, node_budget}, [&] {
    return planner.plan(matrix, src, dst, inventory, node_budget);
  });
}

bool MultiPathPlanner::same_plan(const MultiPathPlan& a, const MultiPathPlan& b) {
  if (a.paths.size() != b.paths.size()) return false;
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    if (a.paths[i].width != b.paths[i].width ||
        a.paths[i].route.regions != b.paths[i].route.regions) {
      return false;
    }
  }
  return true;
}

}  // namespace sage::sched
