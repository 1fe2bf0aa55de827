// Multi-datacenter multi-path transfer planning (the Algorithm-1
// reconstruction).
//
// Given the monitored throughput map, a node budget and the per-region VM
// inventory, the planner builds a transfer topology of one or more widened
// paths:
//
//   1. take the widest (max bottleneck throughput) path src -> dst;
//   2. widen it — add parallel nodes along it — as long as the *marginal*
//      throughput of one more node stays at or above the *normalized*
//      (per-node) throughput of the next-best alternative path;
//   3. when widening stops paying, open the next path and repeat, until
//      the node budget (derived from the user's cost/time tradeoff) or the
//      inventory is exhausted.
//
// Marginal throughput of widening is modelled as geometric saturation: the
// w-th parallel node on a path adds  bottleneck · decay^(w−1)  MB/s, which
// captures the observed sub-linear aggregate scaling (network interference
// among same-path flows), and the planned path throughput is the partial
// geometric sum. The node cost of one unit of width is one VM in each
// intermediate region (forwarders) — or one local scatter helper in the
// source region for the direct path, whose first width unit is free (the
// source VM itself sends).
#pragma once

#include <algorithm>
#include <vector>

#include "common/memo_ring.hpp"
#include "obs/obs.hpp"
#include "sched/paths.hpp"

namespace sage::sched {

struct PlannerParams {
  /// Geometric decay of each extra node's marginal throughput on one path.
  double node_gain_decay = 0.75;
  /// Hard cap on a single path's width (defensive bound).
  int max_width = 16;
};

struct PlannedPath {
  RegionPath route;
  int width = 1;
  double predicted_mbps = 0.0;
};

struct MultiPathPlan {
  std::vector<PlannedPath> paths;
  int nodes_used = 0;
  double total_mbps = 0.0;

  [[nodiscard]] bool empty() const { return paths.empty(); }
};

/// Per-region count of VMs available as forwarders / scatter helpers
/// (excluding the transfer's own source and destination VMs). Regions
/// never written read as the fill/default value (0 unless fill() was
/// called), so an Inventory works at any region count without
/// materializing N entries.
class Inventory {
 public:
  Inventory() = default;

  /// Mutable count; grows the backing store on first touch of a region.
  [[nodiscard]] int& operator[](std::size_t i) {
    if (i >= counts_.size()) counts_.resize(i + 1, default_);
    return counts_[i];
  }
  [[nodiscard]] int operator[](std::size_t i) const {
    return i < counts_.size() ? counts_[i] : default_;
  }
  /// Reset every region (materialized or not) to `v`.
  void fill(int v) {
    counts_.clear();
    default_ = v;
  }

  friend bool operator==(const Inventory& a, const Inventory& b) {
    const std::size_t n = std::max(a.counts_.size(), b.counts_.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (a[i] != b[i]) return false;
    }
    return a.default_ == b.default_;
  }

 private:
  std::vector<int> counts_;
  int default_ = 0;
};

class MultiPathPlanner {
 public:
  explicit MultiPathPlanner(PlannerParams params = {});

  /// Aggregate throughput of a path at a given width (geometric sum).
  [[nodiscard]] double path_throughput(double bottleneck_mbps, int width) const;
  /// Marginal throughput of the width-th node (1-based).
  [[nodiscard]] double marginal_throughput(double bottleneck_mbps, int width) const;

  /// Build a plan using at most `node_budget` nodes from `inventory`.
  /// Returns an empty plan when no route has monitoring data.
  [[nodiscard]] MultiPathPlan plan(const monitor::ThroughputMatrix& matrix,
                                   cloud::Region src, cloud::Region dst,
                                   const Inventory& inventory, int node_budget) const;

  /// Single-path plans used by the evaluation's baseline strategies: the
  /// direct link, or the widest path, widened as far as `node_budget` and
  /// the inventory allow (relay paths pay their forwarders out of the same
  /// budget, keeping comparisons node-for-node fair).
  [[nodiscard]] MultiPathPlan direct_plan(const monitor::ThroughputMatrix& matrix,
                                          cloud::Region src, cloud::Region dst,
                                          const Inventory& inventory,
                                          int node_budget) const;
  [[nodiscard]] MultiPathPlan widest_single_path_plan(
      const monitor::ThroughputMatrix& matrix, cloud::Region src, cloud::Region dst,
      const Inventory& inventory, int node_budget) const;

  /// Structural equality of plans (same routes and widths) — used by
  /// adaptive callers to skip churn when a re-plan changes nothing.
  [[nodiscard]] static bool same_plan(const MultiPathPlan& a, const MultiPathPlan& b);

  /// Report planning decisions into `o`'s registry (sched.plan.calls,
  /// sched.paths.chosen / .rejected, sched.widen.steps). Pass null to
  /// detach. The planner schedules nothing and reads no clock, so these are
  /// pure decision counters.
  void set_obs(obs::Observability* o);

 private:
  /// Node cost of one width unit on a route, and the width cap inventory
  /// allows for it.
  [[nodiscard]] static int width_unit_cost(const RegionPath& route);
  [[nodiscard]] static int max_width_for(const RegionPath& route, const Inventory& inv);
  static void consume(const RegionPath& route, int width, Inventory& inv);

  PlannerParams params_;
  // Decision counters (null when obs is off). plan() is const; counting
  // through these pointers mutates the engine-owned registry, not the
  // planner.
  obs::Counter* obs_plan_calls_ = nullptr;
  obs::Counter* obs_paths_chosen_ = nullptr;
  obs::Counter* obs_paths_rejected_ = nullptr;
  obs::Counter* obs_widen_steps_ = nullptr;
};

/// Epoch-keyed memo in front of MultiPathPlanner::plan().
///
/// plan() is a pure function of (matrix contents, src, dst, inventory,
/// budget); the monitoring service guarantees that equal sample epochs
/// imply an entry-wise identical matrix, so (epoch, src, dst, inventory,
/// budget) is a sound memo key and a hit returns the *exact* plan a fresh
/// call would have produced — cache, don't reassociate. The cache is a
/// `MemoRing` (linear full-key compare, FIFO eviction): a replan
/// sweep over hundreds of transfers sharing a handful of (pair, budget)
/// combinations collapses to one planner run per combination per epoch.
///
/// Soundness caveat: only feed matrices whose epoch uniquely identifies
/// their contents (i.e. MonitoringService::snapshot() results). Two
/// hand-built matrices that both carry epoch 0 would alias.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 64) : memo_(capacity) {}

  /// Memoized planner.plan(matrix, src, dst, inventory, budget). The
  /// returned reference stays valid until this entry is evicted (at least
  /// `capacity` misses away).
  const MultiPathPlan& plan(const MultiPathPlanner& planner,
                            const monitor::ThroughputMatrix& matrix, cloud::Region src,
                            cloud::Region dst, const Inventory& inventory,
                            int node_budget);

  void clear() { memo_.clear(); }
  [[nodiscard]] std::uint64_t hits() const { return memo_.hits(); }
  [[nodiscard]] std::uint64_t misses() const { return memo_.misses(); }
  [[nodiscard]] std::size_t size() const { return memo_.size(); }

 private:
  struct Key {
    std::uint64_t epoch = 0;
    cloud::Region src = cloud::Region::kNorthEU;
    cloud::Region dst = cloud::Region::kNorthEU;
    Inventory inventory{};
    int node_budget = 0;

    [[nodiscard]] bool operator==(const Key&) const = default;
  };

  MemoRing<Key, MultiPathPlan> memo_;
};

}  // namespace sage::sched
