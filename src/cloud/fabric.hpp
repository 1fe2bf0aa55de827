// Fluid-flow network fabric for the simulated multi-site cloud.
//
// Flows (bulk TCP transfers between two nodes) receive rates by max-min fair
// water-filling over the links they traverse:
//
//   node egress NIC -> inter-region WAN link (or intra-DC link) -> ingress NIC
//
// each flow additionally bounded by a demand cap (intrusiveness throttling)
// and by the route's per-flow TCP ceiling (effective window / RTT). WAN and
// intra-DC link capacities evolve over time through LinkCapacityModel; a
// periodic refresh (active only while flows exist) re-settles rates so flows
// experience the environment drift that SAGE's monitoring layer must detect.
//
// Settlement is incremental and component-local: link ids are dense,
// per-link active-flow lists are maintained on flow start/finish, and a flow
// event re-settles only the connected component of flows transitively
// sharing a link with the changed flow (flows on disjoint link sets cannot
// change rate under max-min). Byte progress truncates to whole bytes at
// every advancement point, so three rules keep each flow's history a
// function of its own component: every component water-fills on its own
// (flows in flow-id order, bottleneck ties to the lowest link index),
// refresh ticks land on absolute multiples of the refresh period, and
// node/link mutators advance and re-settle only the components their links
// reach. A refresh tick re-settles every component so capacity drift reaches
// every flow. A settle gives each flow a finish time rounded up to the next
// microsecond, and each component holds one completion event, at its
// earliest finish; the event stays put when that time did not move. See
// DESIGN.md "Simulator performance" for the algorithm and the determinism
// invariants.
//
// This is a deliberate substitution for the paper's real Azure testbed: the
// scheduler and model layers only ever observe flow-level throughput, which
// this fabric reproduces (see DESIGN.md substitution table).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cloud/link_model.hpp"
#include "cloud/region.hpp"
#include "cloud/topology.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "simcore/engine.hpp"

namespace sage::obs {
class Counter;
class Gauge;
}  // namespace sage::obs

namespace sage::cloud {

using NodeId = std::uint32_t;
using FlowId = std::uint64_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

struct FlowOptions {
  /// Upper bound on this flow's rate (e.g. intrusiveness × NIC). Unset means
  /// only the NIC / link / TCP limits apply.
  std::optional<ByteRate> demand_cap;
  /// Extra one-shot setup delay before bytes start moving (protocol
  /// handshakes, HTTP envelope for blob operations, ...).
  SimDuration extra_setup_latency = SimDuration::zero();
};

enum class FlowOutcome : std::uint8_t { kCompleted, kFailed, kCancelled };

struct FlowResult {
  FlowId id;
  FlowOutcome outcome;
  Bytes transferred;
  SimTime started;
  SimTime finished;

  [[nodiscard]] bool ok() const { return outcome == FlowOutcome::kCompleted; }
  [[nodiscard]] SimDuration elapsed() const { return finished - started; }
  [[nodiscard]] ByteRate achieved_rate() const { return transferred / elapsed(); }
};

class Fabric {
 public:
  using CompletionFn = std::function<void(const FlowResult&)>;

  Fabric(sim::SimEngine& engine, Topology topology, std::uint64_t seed);
  /// Shared-topology variant for sharded worlds: S per-shard fabrics index
  /// one immutable topology instead of holding S copies. The topology is
  /// read-only for the fabric's whole lifetime, so concurrent lanes may
  /// share it freely.
  Fabric(sim::SimEngine& engine, std::shared_ptr<const Topology> topology,
         std::uint64_t seed);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // -- Nodes ---------------------------------------------------------------

  /// Register a node (VM or storage endpoint) with its NIC limits.
  /// CHECK-fails when the topology declares no intra-DC link for `region`.
  NodeId add_node(Region region, ByteRate nic_up, ByteRate nic_down);

  /// Mark a node failed/recovered. Failing a node aborts all of its flows.
  void set_node_failed(NodeId node, bool failed);
  [[nodiscard]] bool node_failed(NodeId node) const;
  [[nodiscard]] Region node_region(NodeId node) const;
  [[nodiscard]] NodeId node_count() const {
    return static_cast<NodeId>(nodes_.size());
  }

  // -- Fault injection (chaos layer) ---------------------------------------
  //
  // Chaos state is lazily allocated: until the first mutation the vectors
  // below stay empty and the hot paths take one untaken `!empty()` branch,
  // so a chaos-free run is byte-identical to a build without these hooks.

  /// Scale the declared (a, b) pair link's capacity by `scale` (0 downs the
  /// link). Follows the set_node_failed pattern: advance flows at old rates,
  /// mutate, then either abort crossing flows in id order (`abort_flows`,
  /// completion callbacks fire with kFailed) or strand them — a zero-capacity
  /// link settles crossing flows to rate 0 and cancels their completion
  /// events; they resume when the link is restored. CHECK-fails for
  /// undeclared pairs (callers gate on topology().has_link).
  void set_link_chaos_scale(Region a, Region b, double scale, bool abort_flows);

  /// Extra setup latency added to every new flow crossing (a, b); zero
  /// restores the healthy path. In-flight flows are unaffected.
  void set_link_chaos_latency(Region a, Region b, SimDuration extra);

  /// Abort up to `max_flows` in-flight flows crossing (a, b), smallest flow
  /// id first (deterministic); their callbacks fire with kFailed, which is
  /// what drives the transfer layer's retransmission paths. Returns the
  /// number aborted.
  std::size_t chaos_drop_pair_flows(Region a, Region b, std::size_t max_flows);

  // -- Flows ---------------------------------------------------------------

  /// Begin moving `size` bytes from `src` to `dst`. `on_done` fires exactly
  /// once. Starting a flow on a failed endpoint fails asynchronously.
  FlowId start_flow(NodeId src, NodeId dst, Bytes size, FlowOptions options,
                    CompletionFn on_done);

  /// Abort a flow; its completion callback fires with kCancelled. No-op if
  /// the flow already finished.
  void cancel_flow(FlowId id);

  [[nodiscard]] bool flow_active(FlowId id) const;
  [[nodiscard]] ByteRate flow_rate(FlowId id) const;
  [[nodiscard]] Bytes flow_transferred(FlowId id) const;

  // -- Observability -------------------------------------------------------

  [[nodiscard]] const Topology& topology() const { return *topology_; }
  [[nodiscard]] SimDuration rtt(Region a, Region b) const { return topology_->rtt(a, b); }

  /// Current (time-evolved) aggregate capacity of the region-pair link.
  /// Used by oracle baselines and tests, not by SAGE itself (which must
  /// estimate it from probes).
  ByteRate pair_capacity_now(Region a, Region b);

  /// Egress bytes that have left each region towards a different region;
  /// drives the provider's cost meter.
  [[nodiscard]] Bytes egress_from(Region r) const {
    return egress_[region_index(r)];
  }

  [[nodiscard]] std::size_t active_flow_count() const { return flows_.size(); }

  /// Number of live flows currently crossing the (a, b) region-pair link
  /// (including flows still in their setup-latency phase). O(log degree):
  /// an edge-id lookup plus the per-link flow counter. The monitoring layer
  /// uses this to suspend probes on busy links. Zero for undeclared pairs.
  [[nodiscard]] std::size_t pair_flow_count(Region a, Region b) const {
    const LinkSlot link = topology_->edge_index(a, b);
    return link == kNoLink ? 0 : pair_live_[static_cast<std::size_t>(link)];
  }

  /// Rate-settlement granularity (default 500 ms of simulated time).
  /// Refresh ticks land on absolute multiples of the period.
  void set_refresh_period(SimDuration d) { refresh_period_ = d; }

 private:
  // Link indexing: [0, wan_links_) are the topology's declared directed
  // edges in edge-id order (the diagonal entries hold intra-DC links), then
  // two links per node (up, down). For the default 6-region measured
  // topology the edge ids coincide with the historical row-major src*6+dst
  // slots, so link-id-derived state (lazy RNG forks, settle iteration
  // order) is unchanged. All per-pair state is O(edges), never O(N²).

  // Per-connection transient hiccup parameters (see start_flow).
  static constexpr double kHiccupProbability = 0.12;
  static constexpr double kHiccupDepthLo = 0.10;
  static constexpr double kHiccupDepthHi = 0.45;

  struct Flow {
    FlowId id;
    NodeId src;
    NodeId dst;
    Bytes total;
    Bytes remaining;
    ByteRate option_cap;     // demand_cap from FlowOptions (max() if unset)
    ByteRate spec_flow_cap;  // route's nominal per-flow TCP ceiling
    double hiccup = 1.0;     // transient per-connection luck factor
    ByteRate rate;           // current settled rate
    double demand = 0.0;     // per settle: flow_demand at the settle's instant
    SimTime started;
    SimTime last_progress;
    SimTime completion_at;  // finish time from the last settle; a pending
                            // `completion` event is scheduled at it
    bool active = false;    // false while in setup-latency phase
    bool filled = false;    // per settle: rate fixed by this water-fill
    CompletionFn on_done;
    sim::EventHandle completion;
    std::array<std::size_t, 3> links{};       // up, pair, down (all distinct)
    std::array<std::uint32_t, 3> link_pos{};  // position in each link's flow list
    std::uint32_t visit = 0;                  // component-BFS visit stamp
  };

  struct NodeInfo {
    Region region;
    bool failed = false;
    bool nic_stable = false;  // zero intra-DC noise: NICs keep their nominal rate
  };

  /// Dense link id of the declared (a, b) edge. CHECK-fails for undeclared
  /// pairs — callers route over declared adjacency only.
  std::size_t pair_link(Region a, Region b) const;

  /// A flow's current demand ceiling: min(option cap, nominal per-flow TCP
  /// ceiling scaled by the pair link's congestion factor). Multi-tenant
  /// drift therefore hits single flows too, not just saturated links.
  [[nodiscard]] ByteRate flow_demand(const Flow& flow) const;

  // Incremental bookkeeping -------------------------------------------------

  /// Make `f` visible to settlement: per-link flow lists + active list.
  void activate_flow(Flow& f);
  /// Undo activate_flow (swap-erase from the link lists, O(1) per link).
  void deactivate_flow(Flow& f);

  /// Flows transitively sharing a link with flow `origin` (first, if it
  /// exists) or with the `seeds` links. Only active flows occupy links and
  /// propagate the search.
  void collect_components(FlowId origin, std::initializer_list<std::size_t> seeds,
                          std::vector<Flow*>& out);

  /// Bring the components reachable from `seeds` current at their old
  /// rates, run `mutate` (which may finish flows), then re-settle the
  /// survivors. No other flow gains an advancement point.
  template <typename Mutate>
  void mutate_scoped(std::initializer_list<std::size_t> seeds, Mutate&& mutate);

  /// Re-resolve `flows` to the subset of `ids` still alive (order kept).
  void resolve_live(const std::vector<FlowId>& ids, std::vector<Flow*>& flows);

  /// Finish the flows named by `done` (all live, listed in `flows`) in that
  /// order, then re-resolve `flows` to the survivors by id, old order kept:
  /// callbacks may re-enter the fabric and finish other flows. Returns true
  /// when exactly one flow left and its links stay joined, so flows that
  /// were one component still are.
  bool finish_listed(std::vector<Flow*>& flows, const std::vector<FlowId>& done,
                     FlowOutcome outcome);
  /// Whether the flows on `links` (a departed flow's up, pair and down
  /// links) stay connected without it: each NIC link is empty or shares a
  /// flow with the pair link.
  [[nodiscard]] bool links_stay_joined(const std::array<std::size_t, 3>& links) const;

  /// Bring `flows` up to `now` at their settled rates. Every flow this
  /// moves that is done completes, in flow-id order: no bytes remain, or
  /// its finish time has come with at most one byte of floating-point
  /// rounding left. Their callbacks fire and `flows` shrinks to the
  /// survivors (see finish_listed; the no-completion path touches no hash
  /// lookups). Returns finish_listed's answer, or true when nothing
  /// completed.
  bool advance_flows(std::vector<Flow*>& flows);

  /// Max-min water-filling over the active flows in `flows` (whole
  /// components), one component at a time, using the dense per-link
  /// scratch buffers. Then every flow gets its finish time, and each
  /// component's earliest flow (ties to the lowest id) holds its one
  /// completion event; every other flow's event is cancelled.
  /// `one_component` promises that the active flows are one component, so
  /// the union-find labelling is skipped. Runs no user callbacks.
  void settle_flows(const std::vector<Flow*>& flows, bool one_component = false);
  std::size_t link_root(std::size_t link);  // union-find over touched links

  void on_completion(FlowId id);
  void finish_flow(FlowId id, FlowOutcome outcome);
  void refresh_tick();
  void ensure_refresh_running();
  void schedule_refresh();
  ByteRate link_capacity_now(std::size_t link);

  // Observability cells, resolved once in the constructor when the engine
  // has obs enabled; `obs_` stays null otherwise and every instrumentation
  // point is a single untaken branch. Per-pair-link byte counters and
  // utilization gauges are created lazily (first traffic on the link).
  struct ObsCells {
    obs::Counter* settle_rounds = nullptr;
    obs::Counter* settle_flows = nullptr;
    obs::Counter* flows_started = nullptr;
    obs::Counter* flows_rejected = nullptr;  // failed-endpoint async path
    obs::Counter* flows_completed = nullptr;
    obs::Counter* flows_failed = nullptr;
    obs::Counter* flows_cancelled = nullptr;
    obs::Counter* flow_activations = nullptr;
    obs::Counter* bytes_offered = nullptr;
    obs::Counter* bytes_moved = nullptr;
    obs::Counter* bytes_forgiven = nullptr;  // sub-byte rounding at completion
    obs::Counter* bytes_aborted = nullptr;   // remaining at failure/cancel
    std::vector<obs::Counter*> link_bytes;  // sized wan_links_, lazy cells
    std::vector<obs::Gauge*> link_util;
  };
  obs::Counter* link_bytes_cell(std::size_t pair);
  obs::Gauge* link_util_cell(std::size_t pair);

  sim::SimEngine& engine_;
  // Immutable for the fabric's lifetime; shared across per-shard fabrics in
  // sharded worlds (the value ctor wraps its copy in a shared_ptr).
  std::shared_ptr<const Topology> topology_;
  std::size_t wan_links_ = 0;  // topology_->edges().size(); node links follow
  Rng rng_;
  SimDuration refresh_period_ = SimDuration::millis(500);

  std::vector<NodeInfo> nodes_;
  std::vector<ByteRate> node_up_;
  std::vector<ByteRate> node_down_;
  // Per-node NIC wander: a VM's deliverable bandwidth drifts with its
  // co-tenants and occasionally collapses for minutes (the "problematic
  // node" a scheduler must route around). Only animated on non-stable
  // topologies; lazily created per node.
  std::vector<std::unique_ptr<LinkCapacityModel>> node_models_;

  // Pair-link capacity models, created lazily per declared edge.
  std::vector<std::optional<LinkCapacityModel>> pair_models_;  // sized wan_links_

  // Chaos overlays, empty until the first fault (see the public section).
  // When present: chaos_scale_ multiplies link_capacity_now per link id;
  // chaos_latency_ adds setup latency per pair link id.
  std::vector<double> chaos_scale_;
  std::vector<SimDuration> chaos_latency_;

  std::unordered_map<FlowId, Flow> flows_;  // node-based: Flow* stay stable
  FlowId next_flow_id_ = 1;
  std::uint64_t flows_finished_ = 0;  // flows erased by finish_flow
  std::vector<Bytes> egress_;  // sized region_count
  sim::EventHandle refresh_event_;

  // Dense, persistent link accounting (index = link id). Scratch entries
  // are validated by stamp so a settle touches only its component's links —
  // no per-call clearing, no hashing, deterministic index-order iteration.
  std::vector<std::vector<Flow*>> link_flows_;  // active flows per link
  std::vector<std::uint32_t> pair_live_;  // live flows per edge, sized wan_links_
  std::vector<double> link_avail_;       // scratch: unallocated capacity
  std::vector<double> link_cap0_;        // scratch: capacity at stamp time (obs only)
  std::vector<std::int32_t> link_count_; // scratch: unsettled flows on link
  std::vector<std::uint32_t> link_stamp_;
  std::vector<std::uint32_t> link_visit_;
  std::vector<std::uint32_t> link_root_;  // scratch: union-find parent
  std::vector<std::uint32_t> link_comp_;  // scratch: component ordinal
  std::uint32_t stamp_ = 0;
  std::uint32_t visit_epoch_ = 0;

  // Active flows sorted by id, each with its up link so settle_flows can
  // test membership and find the component without touching the flow.
  struct Active { FlowId id; Flow* flow; std::size_t up; };
  std::vector<Active> active_flows_;
  std::unique_ptr<ObsCells> obs_;    // null when observability is off

  // Reused scratch (persistent capacity, no steady-state allocations).
  // These are only used inside settle_flows / collect_*, which run no user
  // callbacks, so plain members are re-entrancy safe.
  std::vector<std::size_t> link_queue_;
  std::vector<std::size_t> touched_links_;
  // One settle's flows and links grouped by component (see settle_flows).
  std::vector<Flow*> comp_flows_;
  std::vector<std::size_t> comp_links_, flow_start_, link_start_, cursor_;
  std::vector<Flow*> to_reschedule_;
  std::vector<SimTime> finish_at_;       // parallel to to_reschedule_
  std::vector<std::size_t> comp_lead_;   // per component: index of its earliest flow

  // Flow lists live across completion callbacks (which may re-enter the
  // fabric), so they come from small recycle pools instead of members. The
  // Flow* lists carry the hot path (no hash lookups); the id lists are the
  // durable spelling used to re-resolve survivors after callbacks ran.
  std::vector<std::vector<FlowId>> id_pool_;
  std::vector<std::vector<Flow*>> ptr_pool_;
  std::vector<FlowId> take_ids();
  void put_ids(std::vector<FlowId>&& v);
  std::vector<Flow*> take_ptrs();
  void put_ptrs(std::vector<Flow*>&& v);
};

}  // namespace sage::cloud
