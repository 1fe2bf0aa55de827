// SageEngine — the system's public facade.
//
// SAGE = monitored environment + cost/time model + multi-path planner +
// adaptive execution, packaged as (a) a bulk geo-transfer service with an
// explicit cost/time tradeoff knob and (b) the WAN backend of the streaming
// runtime. The control loop per transfer:
//
//   1. snapshot the monitoring map (per-link µ, σ);
//   2. resolve the user's Tradeoff (budget / deadline / λ blend) against
//      the model's cost/time frontier -> node budget n;
//   3. run the multi-datacenter path planner with n and the deployment's
//      VM inventory -> a widened multi-path topology;
//   4. execute as a chunked, acknowledged, deduplicating GeoTransfer whose
//      lanes pull from a shared chunk pool (fast lanes carry more);
//   5. periodically re-plan while the transfer runs: if the fresh map
//      promises materially more throughput (or lanes died), swap the lane
//      set in place;
//   6. feed the achieved rate back into the monitoring map (a free sample).
//
// Every decision the engine takes is recorded in a SendRecord so the
// experiment harness can compare predicted vs achieved time and cost.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "baselines/gateway.hpp"
#include "cloud/provider.hpp"
#include "model/cost_model.hpp"
#include "model/tradeoff.hpp"
#include "monitor/monitoring.hpp"
#include "net/transfer.hpp"
#include "obs/obs.hpp"
#include "net/tree_transfer.hpp"
#include "sched/broadcast.hpp"
#include "sched/multipath.hpp"
#include "stream/backend.hpp"
#include "stream/graph.hpp"
#include "stream/runtime.hpp"

namespace sage::core {

struct SageConfig {
  /// Datacenters the deployment spans (agents + usable forwarders).
  std::vector<cloud::Region> regions;
  /// Helper/forwarder VM inventory cap per region.
  int helpers_per_region = 4;
  /// Transfer endpoint VMs per region; concurrent sends round-robin across
  /// them so one endpoint's NIC never chokes a whole site's traffic.
  int gateways_per_region = 1;
  /// VM size for agents, gateways and helpers.
  cloud::VmSize agent_vm = cloud::VmSize::kSmall;

  /// Set `monitoring.lane` to make this engine one lane of a sharded
  /// control plane (ShardedSage sets it; plain deployments leave it unset).
  /// A lane keeps each transfer's traffic where only the source region's
  /// shard can see it, so rates depend only on the owning lane's flow
  /// population, invariant to the shard count:
  ///   * lane topologies use VMs in the source (and destination endpoint)
  ///     region only: the planner sees zero helper inventory in interior
  ///     regions and emits direct-only plans, since relay routes would
  ///     cross links another lane owns;
  ///   * each send provisions a fresh pair of endpoint VMs (released on
  ///     completion) instead of round-robining the shared gateway pool, so
  ///     sends from differently-owned source regions never contend on a
  ///     shared destination NIC;
  ///   * probes run between per-pair dedicated endpoints
  ///     (monitor::ShardLane).
  monitor::MonitorConfig monitoring;

  /// Default tradeoff applied by the TransferBackend interface.
  model::Tradeoff tradeoff;

  /// Re-planning cadence while transfers run. One engine-wide sweep task
  /// walks every live transfer at this interval (transfers whose monitoring
  /// epoch is unchanged since their last evaluation are skipped in O(1)).
  SimDuration adapt_interval = SimDuration::seconds(5);
  /// Self-healing: the engine periodically replaces failed gateway/helper
  /// VMs and re-registers monitoring agents. Zero disables it.
  SimDuration health_check_interval = SimDuration::seconds(30);
  /// A fresh plan must promise at least this relative throughput gain to
  /// displace the executing one (hysteresis against monitoring noise).
  double replan_threshold = 0.15;
};

/// Everything SAGE decided and observed for one send.
struct SendRecord {
  cloud::Region src;
  cloud::Region dst;
  Bytes size;
  /// Model prediction backing the decision (nullopt when the engine fell
  /// back to a direct transfer for lack of monitoring data).
  std::optional<model::TransferEstimate> estimate;
  int lanes_used = 1;
  int replans = 0;
  bool ok = false;
  SimDuration elapsed;
  net::TransferStats stats;
};

class SageEngine final : public stream::TransferBackend {
 public:
  SageEngine(cloud::CloudProvider& provider, SageConfig config);
  ~SageEngine() override;

  /// Provision one agent VM per configured region, register them with the
  /// monitoring service and start probing. Call once; give the monitoring
  /// map a warm-up period (run the engine) before heavy use.
  void deploy();

  /// Stop monitoring and release every VM the engine provisioned.
  void shutdown();

  // -- TransferBackend (streaming WAN layer) -------------------------------
  void send(cloud::Region src, cloud::Region dst, Bytes size, DoneFn done) override;
  [[nodiscard]] std::string_view name() const override { return "SAGE"; }

  /// Bulk transfer with an explicit tradeoff.
  void send_with(const model::Tradeoff& tradeoff, cloud::Region src, cloud::Region dst,
                 Bytes size, DoneFn done);

  /// Result of a one-to-many dissemination.
  struct DisseminateResult {
    bool ok = false;  // every target received the dataset
    SimDuration elapsed;
    /// (region, arrival time after start) per target, in arrival order.
    std::vector<std::pair<cloud::Region, SimDuration>> arrivals;
    int tree_edges = 0;
  };
  using DisseminateFn = std::function<void(const DisseminateResult&)>;

  /// Replicate `size` bytes from `src` to every region in `targets`
  /// through a widest-spanning-tree multicast with chunk-level cut-through
  /// (adaptive dissemination): interior sites forward each chunk onward
  /// while still receiving the rest, so the deepest site completes at
  /// roughly size / min(edge rate) instead of paying each stage in full.
  /// Falls back to a source-rooted star when the map lacks data.
  void disseminate(cloud::Region src, const std::vector<cloud::Region>& targets,
                   Bytes size, DisseminateFn done);

  // -- Streaming ------------------------------------------------------------
  /// Run a job with this engine as its WAN backend.
  [[nodiscard]] std::unique_ptr<stream::StreamRuntime> run_job(
      stream::JobGraph graph, stream::RuntimeConfig runtime_config = {});

  /// Run one coalesced replan pass over every live transfer right now (the
  /// engine normally runs this from its adapt_interval timer). Returns the
  /// number of transfers whose plan was actually re-evaluated — live
  /// transfers whose monitoring epoch is unchanged since their last
  /// evaluation are skipped with a single integer compare. Public so the
  /// control-plane microbench and tests can drive the sweep directly.
  std::size_t replan_sweep();

  // -- Introspection ---------------------------------------------------------

  /// Event-loop accounting for the introspection report, read from this
  /// engine's own SimEngine. Each lane of a sharded deployment has its own
  /// SageEngine and reports its lane's counters; nothing sums lanes.
  struct RuntimeStats {
    SimTime now;
    std::uint64_t events_scheduled = 0;
    std::uint64_t events_fired = 0;
    std::uint64_t events_cancelled = 0;
    std::size_t events_live = 0;
  };
  [[nodiscard]] RuntimeStats runtime_stats() const;

  [[nodiscard]] monitor::MonitoringService& monitoring() { return *monitoring_; }
  [[nodiscard]] const model::CostModel& cost_model() const { return cost_model_; }
  [[nodiscard]] const sched::MultiPathPlanner& planner() const { return planner_; }
  [[nodiscard]] const std::vector<SendRecord>& history() const { return history_; }
  [[nodiscard]] cloud::CostReport cost() { return provider_.cost_report(); }
  [[nodiscard]] const SageConfig& config() const { return config_; }
  /// VMs replaced by the self-healing loop so far.
  [[nodiscard]] std::uint64_t vms_healed() const { return vms_healed_; }
  /// Control-plane cache accounting (monotone).
  [[nodiscard]] std::uint64_t replans_skipped() const { return replans_skipped_; }
  [[nodiscard]] const sched::PlanCache& plan_cache() const { return plan_cache_; }
  [[nodiscard]] const model::ResolveCache& resolve_cache() const { return resolve_cache_; }

 private:
  struct LiveTransfer {
    std::unique_ptr<net::GeoTransfer> transfer;
    sched::MultiPathPlan plan;
    std::size_t record_index = 0;
    cloud::Region src = cloud::Region::kNorthEU;
    cloud::Region dst = cloud::Region::kNorthEU;
    cloud::VmId src_gw = 0;
    cloud::VmId dst_gw = 0;
    /// Endpoints are per-send leases to release on completion (shard lanes
    /// only).
    bool owns_endpoints = false;
    /// Monitoring epoch at which this transfer's plan was last (re)evaluated;
    /// the sweep skips the transfer while the epoch stays put.
    std::uint64_t last_eval_epoch = 0;
  };

  [[nodiscard]] sched::Inventory inventory(cloud::Region src, cloud::Region dst) const;
  [[nodiscard]] std::vector<net::Lane> build_lanes(const sched::MultiPathPlan& plan,
                                                   cloud::VmId src_gw, cloud::VmId dst_gw,
                                                   cloud::Region src);
  void adapt_transfer(LiveTransfer& live, const monitor::ThroughputMatrix& matrix);
  /// Memoized planner invocation shared by send and replan.
  [[nodiscard]] const sched::MultiPathPlan& plan_for(
      const monitor::ThroughputMatrix& matrix, cloud::Region src, cloud::Region dst,
      int node_budget);
  void reap();
  void health_check();

  cloud::CloudProvider& provider_;
  sim::SimEngine& engine_;
  SageConfig config_;
  baselines::GatewayPool pool_;
  std::unique_ptr<monitor::MonitoringService> monitoring_;
  model::CostModel cost_model_;
  model::TradeoffSolver solver_;
  sched::MultiPathPlanner planner_;
  std::vector<std::unique_ptr<LiveTransfer>> live_;
  std::vector<std::unique_ptr<net::TreeTransfer>> live_trees_;
  std::vector<SendRecord> history_;
  std::unique_ptr<sim::PeriodicTask> health_task_;
  /// One engine-wide sweep task replaces the per-transfer adapt timers; it
  /// starts with the first live transfer and parks itself when none remain.
  std::unique_ptr<sim::PeriodicTask> replan_task_;
  sched::PlanCache plan_cache_;
  model::ResolveCache resolve_cache_;
  std::uint64_t replans_skipped_ = 0;
  obs::Counter* obs_replan_skipped_ = nullptr;
  std::uint64_t vms_healed_ = 0;
  std::uint64_t send_counter_ = 0;
  bool deployed_ = false;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sage::core
