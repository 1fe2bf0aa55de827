// Runtime-parameterized inter-datacenter topology for the simulated fabric.
//
// A Topology is a heap-allocated graph of N regions plus a *sparse* directed
// edge list: one edge per region pair that physically carries traffic
// (the diagonal holds the intra-DC links). Edge order defines the dense
// link-id space every runtime layer (Fabric, MonitoringService, obs cells)
// indexes by, so per-link state is O(edges), never O(N²). Pair lookup is a
// CSR binary search over each region's out-edges; planners iterate the same
// adjacency rows instead of dense matrix rows.
//
// The default topology is the measured-matrix import of the calibrated
// 2013-era Azure 6×6 table (see calibration notes below) and enumerates its
// edges row-major — for the six named regions the resulting link ids are
// exactly the historical `src*6+dst` slots, which keeps every existing
// figure bench byte-identical. Generators (ring-of-continents,
// hub-and-spoke) mint synthetic topologies at 64–256+ sites for the
// scale experiments.
//
// Calibration targets of the default table (2013-era Azure EU/US sites):
//   * single-flow inter-DC TCP throughput from a Small instance: 3–10 MB/s
//     depending on distance, with EU↔EU ~NIC-bound and transatlantic lowest;
//   * intra-DC transfers at least 10× faster than wide-area ones;
//   * aggregate WAN throughput saturating sub-linearly around 6–10 parallel
//     node flows.
//
// Per-flow throughput is modelled as min(NIC share, WAN per-flow TCP cap,
// link fair share); the TCP cap derives from an effective window over the
// pair's RTT, which is what makes distance (not raw capacity) the dominant
// single-flow limit, exactly as observed.
#pragma once

#include <cstdint>
#include <vector>

#include "cloud/link_model.hpp"
#include "cloud/region.hpp"
#include "common/units.hpp"

namespace sage::cloud {

/// Dense link-slot type. 32-bit: a 256-region mesh has 65k directed pairs,
/// past the int16 range the old fixed-size tables could index.
using LinkSlot = std::int32_t;
inline constexpr LinkSlot kNoLink = -1;

struct PairLinkSpec {
  /// Aggregate deliverable WAN capacity for this directed region pair.
  ByteRate capacity;
  /// Per-TCP-flow throughput ceiling (effective window / RTT).
  ByteRate per_flow_cap;
  /// One-way propagation + processing delay.
  SimDuration latency;
  /// Stochastic behaviour of the link.
  VariabilityParams variability;
};

class Topology {
 public:
  struct Edge {
    Region src;
    Region dst;
    PairLinkSpec spec;
  };

  Topology() = default;

  [[nodiscard]] std::size_t region_count() const { return n_; }
  /// All regions of this topology, index order (make_region(0) .. n-1).
  [[nodiscard]] const std::vector<Region>& regions() const { return regions_; }

  /// Declared edges; the vector index IS the dense link id used by every
  /// runtime layer. Diagonal (intra-DC) edges are ordinary entries.
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

  /// Dense link id of the directed pair, or kNoLink when the topology has
  /// no such link. O(log degree) CSR binary search.
  [[nodiscard]] LinkSlot edge_index(Region src, Region dst) const;
  [[nodiscard]] bool has_link(Region src, Region dst) const {
    return edge_index(src, dst) != kNoLink;
  }

  /// Edge ids leaving `src` (diagonal included), dst ascending. Planners
  /// and monitors iterate this adjacency instead of dense matrix rows.
  [[nodiscard]] const std::vector<LinkSlot>& out_edges(Region src) const;

  /// WAN spec for src != dst; intra spec when src == dst. CHECK-fails when
  /// the topology declares no such link — sparse topologies do not promise
  /// all-pairs direct connectivity.
  [[nodiscard]] const PairLinkSpec& link(Region src, Region dst) const;

  /// Round-trip time between two regions (2 × one-way latency).
  [[nodiscard]] SimDuration rtt(Region src, Region dst) const {
    return link(src, dst).latency * 2.0;
  }

 private:
  friend class TopologyBuilder;

  std::size_t n_ = 0;
  std::vector<Region> regions_;
  std::vector<Edge> edges_;
  // CSR adjacency over edges_: rows_[region_index(r)] lists edge ids with
  // src == r, sorted by dst (built once by TopologyBuilder::build).
  std::vector<std::vector<LinkSlot>> rows_;
};

/// Assembles a Topology edge by edge. Edge *insertion order* defines the
/// dense link-id space (and therefore lazy RNG fork order downstream), so
/// builders must add edges deterministically.
class TopologyBuilder {
 public:
  explicit TopologyBuilder(std::size_t region_count);

  /// Declare the directed link src->dst (src == dst declares the intra-DC
  /// link). Re-declaring a pair CHECK-fails.
  TopologyBuilder& add_link(Region src, Region dst, const PairLinkSpec& spec);
  /// Declare both directions with the same spec.
  TopologyBuilder& add_symmetric(Region a, Region b, const PairLinkSpec& spec);

  [[nodiscard]] std::size_t region_count() const { return n_; }
  [[nodiscard]] bool has_link(Region src, Region dst) const;

  /// Finalize: builds the CSR index. The builder is consumed.
  [[nodiscard]] Topology build();

 private:
  std::size_t n_ = 0;
  std::vector<Topology::Edge> edges_;
  std::vector<std::vector<LinkSlot>> rows_;  // maintained sorted by dst
};

// -- Spec helpers shared by the default table and the generators ------------

/// WAN spec from a one-way latency: per-flow cap = effective TCP window over
/// the RTT (clamped), aggregate = per-flow × saturation flows. `stable`
/// zeroes all variability for analytic tests.
[[nodiscard]] PairLinkSpec wan_spec_for_latency(SimDuration one_way, bool long_haul,
                                                bool stable);

/// Intra-DC spec: per-flow and aggregate at least 10× any WAN link of the
/// same topology (`wan_per_flow_ceiling` = the fastest WAN per-flow cap).
[[nodiscard]] PairLinkSpec intra_dc_spec(ByteRate wan_per_flow_ceiling, bool stable);

// -- Topologies -------------------------------------------------------------

/// The calibrated 6×6 one-way latency table (milliseconds; symmetric,
/// diagonal = intra-DC). Exposed so the measured-matrix import round-trip
/// can be pinned bit-exactly by tests.
[[nodiscard]] const std::vector<std::vector<double>>& default_latency_ms();

/// Measured-matrix import: full-mesh topology from an N×N one-way latency
/// table (milliseconds). Edges are enumerated row-major, so for the default
/// table the link ids reproduce the historical dense `src*6+dst` slots.
/// Variability is distance-scaled unless `stable`.
[[nodiscard]] Topology measured_topology(const std::vector<std::vector<double>>& latency_ms,
                                         bool stable = false);

/// The default calibrated topology (measured import of default_latency_ms()).
[[nodiscard]] Topology default_topology();

/// A perfectly stable variant (no noise/diurnal/incidents) for unit tests
/// and model-validation experiments where analytic expectations are needed.
[[nodiscard]] Topology stable_topology();

/// Synthetic planet: `regions` sites spread over `continents` continents
/// arranged in a ring. Intra-continent pairs are fully meshed; continents
/// are stitched by symmetric gateway links (region 0 of each continent to
/// region 0 of the next around the ring), so the edge count stays
/// O(N²/C + C) instead of N². RTTs are symmetric; latency grows with ring
/// distance. Connected by construction.
[[nodiscard]] Topology ring_of_continents(std::size_t regions, std::size_t continents,
                                          bool stable = false);

/// Synthetic star: region 0 is the hub, every other region links to it
/// symmetrically (2(N-1) WAN edges). Spoke↔spoke traffic relays through
/// the hub via the planner's adjacency paths.
[[nodiscard]] Topology hub_and_spoke(std::size_t regions, bool stable = false);

// -- Shard planning ---------------------------------------------------------

/// Partition of a topology's regions across S event-execution shards plus
/// the conservative lookahead horizon between them. Regions are assigned in
/// contiguous index blocks (shard_of[i] = i*S/N), which aligns shard
/// boundaries with the contiguous continent blocks of ring_of_continents
/// whenever S divides the continent count — cross-shard edges are then
/// exactly the high-latency gateway ring, maximizing the lookahead window.
struct ShardPlan {
  std::size_t shards = 1;
  /// Shard of each region, indexed by region_index(). Values in [0, shards).
  std::vector<std::uint32_t> shard_of;
  /// Minimum one-way latency over declared edges whose endpoints live on
  /// different shards: no cross-shard event can arrive sooner, so a shard
  /// may safely run this far ahead of its peers (the null-message insight).
  /// SimDuration::max() when no edge crosses shards (shards are fully
  /// independent). Always positive: plan_shards never cuts a zero-latency
  /// edge.
  SimDuration lookahead = SimDuration::max();

  [[nodiscard]] std::uint32_t shard(Region r) const {
    return shard_of[region_index(r)];
  }
};

/// Plan a partition of `topo` across `shards` shards (clamped to
/// [1, region_count]); computes the conservative lookahead from declared
/// edge latencies. A cut across a zero-latency edge admits no window wider
/// than a point, so such a topology gets the one-shard plan instead.
/// Deterministic: same topology + shard count, same plan.
[[nodiscard]] ShardPlan plan_shards(const Topology& topo, std::size_t shards);

}  // namespace sage::cloud
