// The Monitoring Agent service: a continuously updated, environment-aware
// map of the multi-site cloud.
//
// One agent VM is registered per region; the service then probes every
// directed region pair at a configurable interval (staggered so probes do
// not synchronize) by timing a real transfer between the agent VMs — an
// iperf-style active measurement that exercises exactly the path real
// transfers take. Samples feed per-link estimators (WSI by default).
//
// Intrusiveness throttle: while a link carries live transfer flows, active
// probes on it are suspended and the service instead ingests throughput
// observations reported by the transfer layer itself (the achieved per-flow
// rate *is* a sample, and a free one).
//
// CPU agents: each registered agent VM also runs a periodic arithmetic
// benchmark whose result tracks the VM's multi-tenant compute factor.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cloud/provider.hpp"
#include "monitor/estimator.hpp"
#include "obs/metrics.hpp"
#include "simcore/engine.hpp"

namespace sage::monitor {

struct LinkEstimate {
  double mean_mbps = 0.0;
  double stddev_mbps = 0.0;
  std::size_t samples = 0;

  [[nodiscard]] bool ready() const { return samples > 0; }
};

/// Snapshot of the directed inter-region estimates (the "online map").
///
/// Sparse: entries exist only for monitored pairs, indexed by per-source
/// rows sorted by destination, so memory and iteration cost scale with the
/// monitored links — never N². Planners walk row(src) as an adjacency list;
/// absent pairs read as a zero-sample estimate, exactly like an unmonitored
/// pair of the historical dense matrix.
class ThroughputMatrix {
 public:
  struct Entry {
    cloud::Region src;
    cloud::Region dst;
    LinkEstimate est;
  };

  SimTime taken_at;
  /// Monotone sample epoch of the matrix contents: the value of
  /// MonitoringService::sample_epoch() when the entries were last rebuilt.
  /// Two snapshots with equal epochs are entry-wise identical, which is the
  /// invariant every downstream memo (plan / resolve / replan skip) keys on.
  std::uint64_t epoch = 0;

  ThroughputMatrix() = default;
  explicit ThroughputMatrix(std::size_t region_count) { ensure_regions(region_count); }

  /// Number of regions the map spans (grows with the highest region ever
  /// set). Planners size their per-region scratch off this.
  [[nodiscard]] std::size_t region_count() const { return rows_.size(); }
  void ensure_regions(std::size_t n) {
    if (n > rows_.size()) rows_.resize(n);
  }

  /// Estimate for a directed pair; a zero-sample (not ready) estimate when
  /// the pair was never set. O(log row degree).
  [[nodiscard]] const LinkEstimate& at(cloud::Region src, cloud::Region dst) const;

  /// Entry indices of src's outgoing monitored pairs, dst ascending.
  [[nodiscard]] const std::vector<std::int32_t>& row(cloud::Region src) const;
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

  /// Mutable estimate slot for the pair, created (and regions grown) on
  /// demand.
  [[nodiscard]] LinkEstimate& slot(cloud::Region src, cloud::Region dst);
  void set(cloud::Region src, cloud::Region dst, const LinkEstimate& est) {
    slot(src, dst) = est;
  }

 private:
  std::vector<Entry> entries_;
  std::vector<std::vector<std::int32_t>> rows_;  // entry ids, sorted by dst
};

/// One recorded measurement (kept in the per-link history ring).
struct Sample {
  SimTime at;
  double mbps = 0.0;
};

/// Makes a MonitoringService one lane of a sharded control plane
/// (core::ShardedSage sets one per lane; plain services leave
/// MonitorConfig::lane unset). On a lane:
///   * only pairs whose source region the lane owns are probed. Monitors
///     exist for every declared pair, so stagger order and matrix shape are
///     lane-invariant; a remote-owned pair is fed only by ingest_sample();
///   * probes run between per-pair dedicated fabric endpoints, never the
///     shared agent VMs: pair ownership moves probes between lanes, and
///     shared-NIC contention would make measured rates depend on co-located
///     pairs. The endpoints are plain fabric nodes (no provider RNG);
///   * each locally produced sample (probe result or transfer observation)
///     fires `relay` at production time and is ingested `report_delay`
///     later, so every lane ingests it at the same absolute sim time.
struct ShardLane {
  /// True for the source regions whose pairs this lane probes.
  std::function<bool(cloud::Region)> owns;
  /// Must be > 0. ShardedSage uses the topology's max one-way latency,
  /// which is >= the conservative lookahead at any shard count.
  SimDuration report_delay;
  /// Called with (src, dst, MB/s); ShardedSage forwards the sample to every
  /// remote lane with the same delay.
  std::function<void(cloud::Region, cloud::Region, double)> relay;
};

/// Every estimator runs at its default EstimatorConfig, every bandwidth
/// probe carries 8 MB, and each agent VM benchmarks its CPU every 2 minutes.
struct MonitorConfig {
  EstimatorKind kind = EstimatorKind::kWeighted;
  /// Interval between probes of the same link.
  SimDuration probe_interval = SimDuration::minutes(5);
  /// Samples retained per link for profiling / introspection (the "tracked
  /// logs" scientists use to understand their cloud application and the
  /// base of the self-healing loop). 0 disables history.
  std::size_t history_capacity = 2048;
  /// Set on each lane of a sharded control plane; unset = plain service.
  std::optional<ShardLane> lane;
};

class MonitoringService {
 public:
  MonitoringService(cloud::CloudProvider& provider, MonitorConfig config);
  ~MonitoringService();
  MonitoringService(const MonitoringService&) = delete;
  MonitoringService& operator=(const MonitoringService&) = delete;

  /// Register the VM hosting the monitoring agent in `region`. Probing of a
  /// pair begins once both of its endpoints have agents.
  void register_agent(cloud::Region region, cloud::VmId vm);

  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  /// Feedback path from the transfer layer: the achieved per-flow rate of a
  /// live wide-area transfer, ingested as a sample at the current time.
  void report_transfer_observation(cloud::Region src, cloud::Region dst,
                                   ByteRate per_flow);

  /// Ingest a raw sample of `mbps` into the pair's estimator now, through
  /// the normal pipeline: history and the monotone sample epoch both
  /// advance exactly as for a real probe. Returns false (and does
  /// nothing) when the pair is unmonitored. Never report-delayed: a shard
  /// lane's remote samples arrive through the sharded relay, which already
  /// applied the delay, and the chaos layer's estimator poisoning replicates
  /// each event to every lane at the same absolute time itself.
  bool ingest_sample(cloud::Region src, cloud::Region dst, double mbps);

  [[nodiscard]] LinkEstimate estimate(cloud::Region src, cloud::Region dst) const;

  /// The current throughput map. Served from an epoch-validated cache: when
  /// no sample landed since the previous call only `taken_at` is refreshed
  /// (O(1)); otherwise just the dirty links re-query their estimators. The
  /// reference stays valid until the next snapshot() call on this service.
  [[nodiscard]] const ThroughputMatrix& snapshot() const;

  /// Monotone counter bumped by every accepted link sample (probe result or
  /// transfer observation). Equal epochs guarantee an unchanged matrix —
  /// the invalidation key for every control-plane memo downstream.
  [[nodiscard]] std::uint64_t sample_epoch() const { return epoch_; }

  /// Snapshot-cache accounting (monotone; for tests and the obs mirror).
  [[nodiscard]] std::uint64_t snapshots_rebuilt() const { return snapshots_rebuilt_; }
  [[nodiscard]] std::uint64_t snapshots_cached() const { return snapshots_cached_; }

  /// Estimated CPU factor of the agent VM in `region` (nominal 1.0).
  [[nodiscard]] double cpu_estimate(cloud::Region region) const;

  /// Recorded samples for a link, oldest first (empty when unmonitored or
  /// history is disabled).
  [[nodiscard]] std::vector<Sample> history(cloud::Region src, cloud::Region dst) const;

  /// Direct estimator access for experiments (may be nullptr before any
  /// agent pair exists). Non-owning. Handing out mutable access marks the
  /// link dirty and bumps the sample epoch so the snapshot cache can never
  /// serve stale entries; callers feeding samples through the returned
  /// pointer across multiple snapshots should prefer
  /// report_transfer_observation, which keeps the epoch exact.
  [[nodiscard]] Estimator* link_estimator(cloud::Region src, cloud::Region dst);

  [[nodiscard]] std::uint64_t probes_sent() const { return probes_sent_; }
  [[nodiscard]] std::uint64_t probes_suspended() const { return probes_suspended_; }

 private:
  struct LinkMonitor {
    cloud::Region src;
    cloud::Region dst;
    std::unique_ptr<Estimator> estimator;
    /// Null when a shard lane does not own the pair's source region: the
    /// monitor then only receives relayed samples.
    std::unique_ptr<sim::PeriodicTask> task;
    std::deque<Sample> history;
    bool probe_in_flight = false;
    /// Saw a sample since the cached snapshot last re-queried this link.
    bool dirty = true;
    /// Dedicated probe endpoints (probed pairs on a shard lane only).
    cloud::NodeId probe_src_node = 0;
    cloud::NodeId probe_dst_node = 0;
  };

  void maybe_create_pairs();
  void probe_link(LinkMonitor& link);
  void run_cpu_probe(cloud::Region region);
  /// Common ingestion for probe results and transfer observations: feeds
  /// the estimator, the history ring and the epoch.
  void ingest(LinkMonitor& link, double mbps);
  /// Routes a freshly produced sample: immediate ingestion on a plain
  /// service; on a shard lane, fires the relay at production time and
  /// schedules the local ingestion at +report_delay.
  void accept_sample(LinkMonitor& link, double mbps);

  [[nodiscard]] std::size_t pair_index(cloud::Region src, cloud::Region dst) const {
    return cloud::region_index(src) * region_count_ + cloud::region_index(dst);
  }
  /// O(1) pair lookup (nullptr when the pair is unmonitored).
  [[nodiscard]] LinkMonitor* find_link(cloud::Region src, cloud::Region dst) const {
    const std::int32_t slot = pair_slot_[pair_index(src, dst)];
    return slot < 0 ? nullptr : links_[static_cast<std::size_t>(slot)].get();
  }

  cloud::CloudProvider& provider_;
  sim::SimEngine& engine_;
  MonitorConfig config_;
  std::size_t region_count_ = 0;  // provider topology's region count
  std::vector<std::optional<cloud::VmId>> agents_;  // sized region_count_
  std::vector<std::unique_ptr<LinkMonitor>> links_;
  /// Directed-pair presence/index table: pair_slot_[pair_index(a,b)] is the
  /// links_ index of that pair's monitor, or -1. 32-bit slots: an int16
  /// table overflows once N² monitored pairs exceed 32767 (a 256-region
  /// mesh has 65k). Replaces the per-registration O(links²) existence scan.
  std::vector<std::int32_t> pair_slot_;  // sized region_count_²
  std::vector<std::unique_ptr<Estimator>> cpu_;  // sized region_count_
  std::vector<std::unique_ptr<sim::PeriodicTask>> cpu_tasks_;
  bool running_ = false;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t probes_suspended_ = 0;
  /// Bumped on every accepted link sample (see sample_epoch()).
  std::uint64_t epoch_ = 0;
  // Snapshot cache: entries are rebuilt lazily per dirty link. `mutable`
  // because snapshot() is const for callers — the cache is pure memo.
  mutable ThroughputMatrix cached_;
  mutable bool cache_primed_ = false;
  mutable std::uint64_t snapshots_rebuilt_ = 0;
  mutable std::uint64_t snapshots_cached_ = 0;
  // Obs mirror of the cache accounting (null when obs is off).
  obs::Counter* obs_rebuilt_ = nullptr;
  obs::Counter* obs_cached_ = nullptr;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sage::monitor
