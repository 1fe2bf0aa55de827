// Deterministic fault injection for the simulated multi-site cloud.
//
// A FaultPlan is a typed, time-sorted schedule of environment faults —
// link-down/up, region outages, latency spikes, capacity squeezes, loss
// bursts, WAN partitions, correlated incident storms and estimator
// poisoning — and a ChaosController executes it by posting ordinary events
// through the SimEngine, so faults serialize deterministically with normal
// traffic: same plan + same seed, bit-identical run, on the plain engine
// and on the region-sharded ShardedSimEngine alike (each lane applies the
// plan to its own fabric through the lane's event queue, so S in {1,2,4}
// stays byte-identical).
//
// Chaos exists in a world only where a caller constructs a controller, and
// every constructor takes an explicit `enabled` flag. A disabled controller
// schedules nothing and touches nothing — chaos-off runs reproduce healthy
// output byte for byte, which the differential tests pin.
//
// The fabric-side mutations live in cloud::Fabric (set_link_chaos_scale /
// set_link_chaos_latency / chaos_drop_pair_flows) and follow the
// set_node_failed pattern: advance flows at old rates, mutate, abort
// doomed flows in id order, re-settle incrementally. Estimator poisoning
// goes through MonitoringService::ingest_sample — the normal ingestion
// path, so history and the monotone sample epoch both advance exactly as
// for a real probe.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/fabric.hpp"
#include "cloud/topology.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "simcore/engine.hpp"
#include "simcore/sharded_engine.hpp"

namespace sage::monitor {
class MonitoringService;
}  // namespace sage::monitor

namespace sage::chaos {

enum class FaultKind : std::uint8_t {
  kLinkDown,         // capacity of the directed pair (a, b) -> 0
  kLinkUp,           // restore (a, b) to scale 1.0
  kRegionOutage,     // fail every fabric node in region a
  kRegionRecover,    // un-fail every failed node in region a
  kLatencySpike,     // add `extra` setup latency to new flows on (a, b)
  kCapacitySqueeze,  // scale (a, b) capacity by `magnitude` in (0, 1)
  kLossBurst,        // abort up to `count` in-flight flows on (a, b)
  kPartition,        // cut every declared WAN link crossing `group` boundary
  kHeal,             // undo kPartition for the same `group`
  kPoisonEstimator,  // inject `count` garbage samples of `magnitude` MB/s
};

[[nodiscard]] const char* to_string(FaultKind kind);

struct FaultEvent {
  SimTime at;
  FaultKind kind = FaultKind::kLinkDown;
  cloud::Region a = cloud::Region::kNorthEU;  // primary region / link source
  cloud::Region b = cloud::Region::kNorthEU;  // link destination (pair faults)
  /// Capacity scale (kCapacitySqueeze) or poison sample MB/s (kPoison...).
  double magnitude = 0.0;
  /// Extra one-way setup latency (kLatencySpike).
  SimDuration extra = SimDuration::zero();
  /// > 0 schedules the matching recovery `duration` after application
  /// (link up / region recover / heal / spike+squeeze revert).
  SimDuration duration = SimDuration::zero();
  /// Loss-burst flow budget / poison sample count.
  int count = 0;
  /// Link-down & partition: abort crossing flows (kFailed callbacks fire,
  /// retransmission paths engage) instead of stranding them at zero rate.
  bool abort_flows = false;
  /// Partition island (kPartition / kHeal): links with exactly one endpoint
  /// in the group are cut / restored.
  std::vector<cloud::Region> group;

  /// One-line human form ("t=12.500s link_down NEU->NUS dur=30s abort") —
  /// the fuzz loop prints these so any failure reproduces from its log.
  [[nodiscard]] std::string describe() const;
};

/// A typed, time-ordered fault schedule. Builder methods append and return
/// *this so scenarios read as scripts; `sort()` (called by the controller)
/// makes application order (time, then insertion order) explicit.
struct FaultPlan {
  std::vector<FaultEvent> events;

  FaultPlan& add(FaultEvent e);
  FaultPlan& link_down(SimTime at, cloud::Region a, cloud::Region b,
                       SimDuration duration = SimDuration::zero(),
                       bool abort_flows = false);
  FaultPlan& link_up(SimTime at, cloud::Region a, cloud::Region b);
  FaultPlan& region_outage(SimTime at, cloud::Region r,
                           SimDuration duration = SimDuration::zero());
  FaultPlan& latency_spike(SimTime at, cloud::Region a, cloud::Region b,
                           SimDuration extra,
                           SimDuration duration = SimDuration::zero());
  FaultPlan& capacity_squeeze(SimTime at, cloud::Region a, cloud::Region b,
                              double scale,
                              SimDuration duration = SimDuration::zero());
  FaultPlan& loss_burst(SimTime at, cloud::Region a, cloud::Region b, int flows);
  FaultPlan& partition(SimTime at, std::vector<cloud::Region> group,
                       SimDuration duration = SimDuration::zero(),
                       bool abort_flows = false);
  FaultPlan& heal(SimTime at, std::vector<cloud::Region> group);
  FaultPlan& poison_estimator(SimTime at, cloud::Region a, cloud::Region b,
                              double mbps, int samples = 1);

  [[nodiscard]] bool empty() const { return events.empty(); }
  [[nodiscard]] std::size_t size() const { return events.size(); }
  /// Stable sort by time (insertion order breaks ties).
  void sort();
  /// Multi-line human form; the fuzz harness prints it on failure so the
  /// offending schedule reproduces from the seed alone.
  [[nodiscard]] std::string describe() const;

  /// Correlated incident storms via a seeded hazard process: storm arrivals
  /// are Poisson at `storms_per_day`; each storm picks an epicenter region
  /// and knocks a correlated set of its declared WAN links down (or deeply
  /// squeezes them) for exponentially distributed, storm-shared durations.
  /// Deterministic in (seed, topology, window).
  static FaultPlan incident_storm(std::uint64_t seed, const cloud::Topology& topo,
                                  SimTime start, SimDuration horizon,
                                  double storms_per_day,
                                  SimDuration mean_duration = SimDuration::minutes(5));

  /// Randomized schedule over every fault kind for the fuzz loop: `events`
  /// faults uniform over [start, start+horizon) on the topology's declared
  /// WAN pairs. Deterministic in its arguments.
  static FaultPlan random(std::uint64_t seed, const cloud::Topology& topo,
                          SimTime start, SimDuration horizon, int events);
};

/// The components one lane's faults apply to. Any pointer may be null —
/// events needing an absent target are counted as skipped, not errors
/// (e.g. monitoring-free fabric worlds ignore poisoning events).
struct ChaosTargets {
  cloud::Fabric* fabric = nullptr;
  monitor::MonitoringService* monitoring = nullptr;
};

/// Executes a FaultPlan against one world. Construction schedules every
/// event through the engine (when enabled); auto-recoveries (`duration`)
/// are scheduled at application time on the same lane. The controller must
/// outlive the engine's run.
class ChaosController {
 public:
  /// Plain single-engine world.
  ChaosController(sim::SimEngine& engine, ChaosTargets targets, FaultPlan plan,
                  bool enabled);
  /// Region-sharded world: one ChaosTargets per lane (lane_count entries).
  /// Every event is scheduled on every lane's own engine (shard(l)) at the
  /// same absolute sim time — each lane mutates only its own fabric inside
  /// its own event context, so any shard count replays the identical fault
  /// sequence.
  ChaosController(sim::ShardedSimEngine& engine, std::vector<ChaosTargets> lanes,
                  FaultPlan plan, bool enabled);
  ChaosController(const ChaosController&) = delete;
  ChaosController& operator=(const ChaosController&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Fault applications / scheduled recoveries executed so far, summed over
  /// lanes (read when the engine is quiescent).
  [[nodiscard]] std::uint64_t faults_applied() const;
  [[nodiscard]] std::uint64_t reverts_applied() const;
  /// Events that found no live target (null fabric/monitoring, unmonitored
  /// pair, undeclared link).
  [[nodiscard]] std::uint64_t faults_skipped() const;

 private:
  // Lanes run concurrently inside a sharded window; counters are per-lane
  // and cache-line padded, summed only when quiescent.
  struct alignas(64) LaneState {
    /// The event lane this state's faults run on: the plain engine, or the
    /// sharded engine's shard(l).
    sim::SimEngine* engine = nullptr;
    ChaosTargets targets;
    std::uint64_t applied = 0;
    std::uint64_t reverted = 0;
    std::uint64_t skipped = 0;
    /// Nodes failed by the most recent outage per region index (restored by
    /// the matching recover).
    std::vector<std::vector<cloud::NodeId>> outage_nodes;
  };

  void arm();
  void fire(std::size_t event_index, std::size_t lane);
  void apply(const FaultEvent& e, LaneState& lane, bool is_revert);
  /// Schedule `fn` on `lane`'s engine after `delay` (clamped at zero).
  void schedule_on_lane(std::size_t lane, SimDuration delay,
                        sim::SimEngine::Callback fn);

  void apply_pair_scale(const FaultEvent& e, LaneState& lane, double scale);
  void apply_partition(const FaultEvent& e, LaneState& lane, bool cut);
  void apply_outage(const FaultEvent& e, LaneState& lane, bool fail);

  FaultPlan plan_;
  bool enabled_ = false;
  std::vector<std::unique_ptr<LaneState>> lanes_;
};

}  // namespace sage::chaos
