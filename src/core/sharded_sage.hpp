// ShardedSage — a full SAGE deployment running on the region-sharded engine.
//
// The control plane (SageEngine + MonitoringService + planner + per-region
// agents) was built around one global event lane. This facade runs S
// replicas of it, one per `sim::ShardedSimEngine` lane, and partitions the
// *activity* by region ownership while keeping the *state* replicated:
//
//   - Every lane deploys the full agent/gateway/helper pool over its own
//     fabric, so region-indexed lookups work everywhere, but a lane probes
//     only the directed pairs whose source region it owns and executes only
//     the transfers whose source region it owns.
//   - Every produced monitoring sample (probe result or transfer
//     observation) is relayed to the remote lanes through the conservative
//     lookahead mailboxes with a *uniform* report delay D = the topology's
//     maximum one-way latency (>= the lookahead for any shard count); the
//     producing lane defers its own ingestion by the same D. All lanes
//     therefore ingest the identical sample multiset at identical absolute
//     sim times — per-lane sample epochs advance in lock-step and the PR 5
//     epoch-keyed plan/resolve/snapshot caches stay value-identical across
//     lanes without any cross-lane invalidation (the "epoch-merge rule" of
//     DESIGN.md §16).
//   - Each lane engine's MonitorConfig carries a monitor::ShardLane (the
//     owned-region test, D and the relay), the one switch every lane rule
//     keys on: transfers use shard-local lane topologies (direct routes
//     widened with source-region scatter helpers) and ephemeral per-send
//     endpoint VMs, and probes use dedicated per-pair endpoints, so every
//     flow a lane starts crosses only links its shard owns and never
//     contends on a NIC with another lane's flows. Combined with a *stable*
//     (noise-free) topology, flow rates — and thus every control decision —
//     are invariant to the shard count: S ∈ {1,2,4,...} produce
//     byte-identical scenario output.
//
// What changes with S is only the wall clock: each lane's fabric holds just
// its owned flows, so the fabric-wide max-min settlement sweeps (the
// superlinear cost PR 7 measured) shrink by the partition factor.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cloud/provider.hpp"
#include "cloud/topology.hpp"
#include "core/sage.hpp"
#include "simcore/sharded_engine.hpp"

namespace sage::core {

class ShardedSage {
 public:
  struct Options {
    /// Requested shard count (clamped to [1, region_count] by plan_shards).
    std::size_t shards = 1;
    /// Drive lanes on several threads (false = inline in shard order;
    /// identical results by contract).
    bool parallel = true;
    /// Threads that drive lanes, the calling thread included; 0 = hardware
    /// concurrency.
    std::size_t max_workers = 0;
  };

  /// The topology must be *stable* (zero WAN noise on every declared edge):
  /// stochastic capacity draws happen per-fabric and would break the
  /// shard-count invariance of measured rates.
  ShardedSage(std::shared_ptr<const cloud::Topology> topology, std::uint64_t seed,
              SageConfig config, Options opts);
  ~ShardedSage();
  ShardedSage(const ShardedSage&) = delete;
  ShardedSage& operator=(const ShardedSage&) = delete;

  /// Deploy every lane's replica (agents + pools) and start monitoring.
  void deploy();

  /// Issue a bulk transfer on the source region's owning lane. Call from a
  /// quiescent coordinator (between run_* calls) or from a callback already
  /// running on that same lane; `done` runs on the owning lane.
  void send(cloud::Region src, cloud::Region dst, Bytes size,
            const model::Tradeoff& tradeoff, stream::TransferBackend::DoneFn done);

  /// Advance every lane by `d` (lock-step windows of the lookahead).
  void run_for(SimDuration d);

  [[nodiscard]] sim::ShardedSimEngine& engine() { return *engine_; }
  [[nodiscard]] const cloud::ShardPlan& plan() const { return plan_; }
  [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }
  /// Lane owning `r`'s activity.
  [[nodiscard]] std::size_t lane_of(cloud::Region r) const { return plan_.shard(r); }
  [[nodiscard]] SageEngine& lane(std::size_t l) { return *lanes_[l]; }
  [[nodiscard]] cloud::CloudProvider& provider(std::size_t l) { return *providers_[l]; }
  /// Uniform sample report delay D applied on every lane.
  [[nodiscard]] SimDuration report_delay() const { return report_delay_; }

  /// Lock-step check (call quiescent): every lane saw the same number of
  /// accepted samples, the invariant the per-lane caches rely on.
  [[nodiscard]] bool epochs_consistent() const;

 private:
  std::shared_ptr<const cloud::Topology> topology_;
  cloud::ShardPlan plan_;
  SimDuration report_delay_;
  std::unique_ptr<sim::ShardedSimEngine> engine_;
  std::vector<std::unique_ptr<cloud::CloudProvider>> providers_;
  std::vector<std::unique_ptr<SageEngine>> lanes_;
};

}  // namespace sage::core
