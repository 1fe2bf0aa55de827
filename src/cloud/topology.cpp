#include "cloud/topology.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace sage::cloud {
namespace {

// Effective TCP window for a single wide-area flow. 256 KB reproduces the
// observed single-flow rates: ~10 MB/s EU<->EU (near NIC-bound for Small
// VMs), ~2.7 MB/s transatlantic, ~1.8 MB/s to West US — leaving the 4-6x
// headroom between one flow and the NIC that makes parallel sender nodes
// pay, exactly the regime the multi-node experiments explore.
constexpr double kEffectiveWindowBytes = 256.0 * 1024.0;

// Aggregate WAN capacity as a multiple of the per-flow cap: parallelism pays
// until roughly this many flows, then saturates.
constexpr double kSaturationFlows = 8.0;

// One-way latency at or above this reads as a long-haul (transatlantic-
// class) path for the variability model. The calibrated table's
// transatlantic pairs sit at 45–72.5 ms, intra-continent at 12.5–35 ms.
constexpr double kLongHaulMs = 40.0;

VariabilityParams wan_variability(bool long_haul) {
  VariabilityParams p;
  // Longer paths cross more shared infrastructure: noisier, more incidents.
  // Congestion drifts on the tens-of-minutes scale (hourly averages move
  // smoothly); the fast spikes come from per-connection hiccups in the
  // fabric, matching the measured minute-scale vs hourly behaviour.
  p.noise_sigma = long_haul ? 0.065 : 0.05;
  p.noise_rho = 0.97;
  p.noise_step = SimDuration::minutes(10);
  p.diurnal_amplitude = long_haul ? 0.18 : 0.12;
  p.incidents_per_day = long_haul ? 3.0 : 1.5;
  p.incident_mean_duration = SimDuration::minutes(4);
  return p;
}

VariabilityParams intra_variability() {
  VariabilityParams p;
  p.noise_sigma = 0.04;
  p.noise_rho = 0.85;
  p.diurnal_amplitude = 0.05;
  p.incidents_per_day = 0.3;
  p.incident_mean_duration = SimDuration::minutes(2);
  return p;
}

PairLinkSpec wan_spec_ms(double lat_ms, bool stable) {
  PairLinkSpec s;
  s.latency = SimDuration::micros(static_cast<std::int64_t>(lat_ms * 1000.0));
  const double rtt_s = 2.0 * lat_ms / 1000.0;
  const double flow_cap = std::clamp(kEffectiveWindowBytes / rtt_s, 1.5e6, 25.0e6);
  s.per_flow_cap = ByteRate::bytes_per_sec(flow_cap);
  s.capacity = ByteRate::bytes_per_sec(flow_cap * kSaturationFlows);
  s.variability =
      stable ? VariabilityParams::stable() : wan_variability(lat_ms >= kLongHaulMs);
  return s;
}

// The calibrated default's intra-DC spec: per-flow 50 MB/s (>=10x WAN for
// Small-instance NICs), effectively unconstrained aggregate for the
// deployment sizes SAGE uses.
PairLinkSpec calibrated_intra_spec(double lat_ms, bool stable) {
  PairLinkSpec s;
  s.latency = SimDuration::micros(static_cast<std::int64_t>(lat_ms * 1000.0));
  s.per_flow_cap = ByteRate::mb_per_sec(50.0);
  s.capacity = ByteRate::mb_per_sec(2000.0);
  s.variability = stable ? VariabilityParams::stable() : intra_variability();
  return s;
}

}  // namespace

// -- Topology ---------------------------------------------------------------

LinkSlot Topology::edge_index(Region src, Region dst) const {
  const std::size_t s = region_index(src);
  if (s >= rows_.size()) return kNoLink;
  const std::vector<LinkSlot>& row = rows_[s];
  const auto it = std::lower_bound(row.begin(), row.end(), dst,
                                   [this](LinkSlot id, Region d) {
                                     return edges_[static_cast<std::size_t>(id)].dst < d;
                                   });
  if (it == row.end() || edges_[static_cast<std::size_t>(*it)].dst != dst) return kNoLink;
  return *it;
}

const std::vector<LinkSlot>& Topology::out_edges(Region src) const {
  static const std::vector<LinkSlot> kEmpty;
  const std::size_t s = region_index(src);
  return s < rows_.size() ? rows_[s] : kEmpty;
}

const PairLinkSpec& Topology::link(Region src, Region dst) const {
  const LinkSlot id = edge_index(src, dst);
  SAGE_CHECK_MSG(id != kNoLink, "topology declares no link between those regions");
  return edges_[static_cast<std::size_t>(id)].spec;
}

// -- TopologyBuilder --------------------------------------------------------

TopologyBuilder::TopologyBuilder(std::size_t region_count) : n_(region_count) {
  SAGE_CHECK_MSG(n_ >= 1, "a topology needs at least one region");
  SAGE_CHECK_MSG(n_ <= 65536, "Region is a 16-bit site index");
  rows_.resize(n_);
}

TopologyBuilder& TopologyBuilder::add_link(Region src, Region dst,
                                           const PairLinkSpec& spec) {
  const std::size_t s = region_index(src);
  const std::size_t d = region_index(dst);
  SAGE_CHECK_MSG(s < n_ && d < n_, "edge endpoints must be declared regions");
  std::vector<LinkSlot>& row = rows_[s];
  const auto it = std::lower_bound(row.begin(), row.end(), dst,
                                   [this](LinkSlot id, Region to) {
                                     return edges_[static_cast<std::size_t>(id)].dst < to;
                                   });
  SAGE_CHECK_MSG(it == row.end() || edges_[static_cast<std::size_t>(*it)].dst != dst,
                 "directed pair declared twice");
  const LinkSlot id = static_cast<LinkSlot>(edges_.size());
  edges_.push_back(Topology::Edge{src, dst, spec});
  row.insert(it, id);
  return *this;
}

TopologyBuilder& TopologyBuilder::add_symmetric(Region a, Region b,
                                                const PairLinkSpec& spec) {
  add_link(a, b, spec);
  if (a != b) add_link(b, a, spec);
  return *this;
}

bool TopologyBuilder::has_link(Region src, Region dst) const {
  const std::size_t s = region_index(src);
  if (s >= rows_.size()) return false;
  const std::vector<LinkSlot>& row = rows_[s];
  const auto it = std::lower_bound(row.begin(), row.end(), dst,
                                   [this](LinkSlot id, Region to) {
                                     return edges_[static_cast<std::size_t>(id)].dst < to;
                                   });
  return it != row.end() && edges_[static_cast<std::size_t>(*it)].dst == dst;
}

Topology TopologyBuilder::build() {
  Topology t;
  t.n_ = n_;
  t.regions_.reserve(n_);
  for (std::size_t i = 0; i < n_; ++i) t.regions_.push_back(make_region(i));
  t.edges_ = std::move(edges_);
  t.rows_ = std::move(rows_);
  n_ = 0;
  return t;
}

// -- Spec helpers -----------------------------------------------------------

PairLinkSpec wan_spec_for_latency(SimDuration one_way, bool long_haul, bool stable) {
  PairLinkSpec s;
  s.latency = one_way;
  const double rtt_s = 2.0 * one_way.to_seconds();
  SAGE_CHECK_MSG(rtt_s > 0.0, "WAN latency must be positive");
  const double flow_cap = std::clamp(kEffectiveWindowBytes / rtt_s, 1.5e6, 25.0e6);
  s.per_flow_cap = ByteRate::bytes_per_sec(flow_cap);
  s.capacity = ByteRate::bytes_per_sec(flow_cap * kSaturationFlows);
  s.variability = stable ? VariabilityParams::stable() : wan_variability(long_haul);
  return s;
}

PairLinkSpec intra_dc_spec(ByteRate wan_per_flow_ceiling, bool stable) {
  PairLinkSpec s;
  s.latency = SimDuration::micros(1000);
  // Intra-DC stays >= 10x the fastest WAN path of the topology, both
  // per-flow and in aggregate, matching the calibration target.
  const double per_flow =
      std::max(50.0e6, 10.0 * wan_per_flow_ceiling.bytes_per_second());
  s.per_flow_cap = ByteRate::bytes_per_sec(per_flow);
  s.capacity = ByteRate::bytes_per_sec(per_flow * 40.0);
  s.variability = stable ? VariabilityParams::stable() : intra_variability();
  return s;
}

// -- Measured-matrix import (the calibrated default) ------------------------

const std::vector<std::vector<double>>& default_latency_ms() {
  // One-way latencies in milliseconds between the six sites. Symmetric;
  // diagonal is the intra-DC latency.
  static const std::vector<std::vector<double>> kLatencyMs = {
      //            NEU   WEU   NUS   SUS   EUS   WUS
      /* NEU */ {   1.0, 12.5, 47.5, 55.0, 45.0, 70.0},
      /* WEU */ {  12.5,  1.0, 50.0, 52.5, 47.5, 72.5},
      /* NUS */ {  47.5, 50.0,  1.0, 22.5, 12.5, 30.0},
      /* SUS */ {  55.0, 52.5, 22.5,  1.0, 17.5, 22.5},
      /* EUS */ {  45.0, 47.5, 12.5, 17.5,  1.0, 35.0},
      /* WUS */ {  70.0, 72.5, 30.0, 22.5, 35.0,  1.0},
  };
  return kLatencyMs;
}

Topology measured_topology(const std::vector<std::vector<double>>& latency_ms,
                           bool stable) {
  const std::size_t n = latency_ms.size();
  TopologyBuilder b(n);
  // Row-major enumeration (diagonal included): for the six named regions
  // the edge ids are exactly the historical src*6+dst link slots, keeping
  // lazy capacity-model RNG fork order — and thus every figure bench —
  // byte-identical to the dense representation.
  for (std::size_t i = 0; i < n; ++i) {
    SAGE_CHECK_MSG(latency_ms[i].size() == n, "latency table must be square");
    for (std::size_t j = 0; j < n; ++j) {
      const double lat_ms = latency_ms[i][j];
      b.add_link(make_region(i), make_region(j),
                 i == j ? calibrated_intra_spec(lat_ms, stable)
                        : wan_spec_ms(lat_ms, stable));
    }
  }
  return b.build();
}

Topology default_topology() { return measured_topology(default_latency_ms(), false); }

Topology stable_topology() { return measured_topology(default_latency_ms(), true); }

// -- Generators -------------------------------------------------------------

namespace {

// Deterministic per-pair latency jitter so synthetic links are not all
// identical (distinct bottlenecks make widest-path choices meaningful).
double pair_jitter_ms(std::size_t i, std::size_t j) {
  return static_cast<double>((i * 31 + j * 17) % 10);
}

}  // namespace

Topology ring_of_continents(std::size_t regions, std::size_t continents, bool stable) {
  SAGE_CHECK_MSG(regions >= 2, "ring topology needs at least two regions");
  SAGE_CHECK_MSG(continents >= 1 && continents <= regions,
                 "need 1..regions continents");
  TopologyBuilder b(regions);
  const auto continent_of_site = [&](std::size_t i) {
    return i * continents / regions;  // contiguous blocks
  };
  const auto gateway_of = [&](std::size_t c) {
    // First site of the continent's block (smallest i with continent c).
    std::size_t lo = 0;
    while (continent_of_site(lo) != c) ++lo;
    return lo;
  };

  constexpr double kIntraContinentMs = 15.0;
  constexpr double kRingBaseMs = 45.0;
  // Fastest WAN path: intra-continent at the base latency.
  const PairLinkSpec probe = wan_spec_for_latency(
      SimDuration::micros(static_cast<std::int64_t>(kIntraContinentMs * 1000.0)),
      /*long_haul=*/false, stable);

  for (std::size_t i = 0; i < regions; ++i) {
    b.add_link(make_region(i), make_region(i), intra_dc_spec(probe.per_flow_cap, stable));
  }
  // Intra-continent full mesh.
  for (std::size_t i = 0; i < regions; ++i) {
    for (std::size_t j = i + 1; j < regions; ++j) {
      if (continent_of_site(i) != continent_of_site(j)) continue;
      const double ms = kIntraContinentMs + pair_jitter_ms(i, j);
      b.add_symmetric(make_region(i), make_region(j),
                      wan_spec_for_latency(
                          SimDuration::micros(static_cast<std::int64_t>(ms * 1000.0)),
                          /*long_haul=*/false, stable));
    }
  }
  // Ring of continents: gateway site of c <-> gateway site of c+1.
  for (std::size_t c = 0; c < continents; ++c) {
    const std::size_t next = (c + 1) % continents;
    if (next == c) break;  // single continent: the mesh already connects it
    const Region g1 = make_region(gateway_of(c));
    const Region g2 = make_region(gateway_of(next));
    if (g1 == g2 || b.has_link(g1, g2)) continue;
    const double ms = kRingBaseMs + pair_jitter_ms(c, next);
    b.add_symmetric(g1, g2,
                    wan_spec_for_latency(
                        SimDuration::micros(static_cast<std::int64_t>(ms * 1000.0)),
                        /*long_haul=*/true, stable));
  }
  return b.build();
}

Topology hub_and_spoke(std::size_t regions, bool stable) {
  SAGE_CHECK_MSG(regions >= 2, "hub-and-spoke needs at least two regions");
  TopologyBuilder b(regions);
  constexpr double kSpokeBaseMs = 20.0;
  const PairLinkSpec probe = wan_spec_for_latency(
      SimDuration::micros(static_cast<std::int64_t>(kSpokeBaseMs * 1000.0)),
      /*long_haul=*/false, stable);
  for (std::size_t i = 0; i < regions; ++i) {
    b.add_link(make_region(i), make_region(i), intra_dc_spec(probe.per_flow_cap, stable));
  }
  const Region hub = make_region(0);
  for (std::size_t i = 1; i < regions; ++i) {
    const double ms = kSpokeBaseMs + static_cast<double>(i % 7) * 7.5;
    b.add_symmetric(hub, make_region(i),
                    wan_spec_for_latency(
                        SimDuration::micros(static_cast<std::int64_t>(ms * 1000.0)),
                        /*long_haul=*/ms >= 40.0, stable));
  }
  return b.build();
}

ShardPlan plan_shards(const Topology& topo, std::size_t shards) {
  const std::size_t n = topo.region_count();
  SAGE_CHECK_MSG(n >= 1, "cannot shard an empty topology");
  ShardPlan plan;
  plan.shards = std::min(std::max<std::size_t>(shards, 1), n);
  plan.shard_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Contiguous blocks, never-empty by construction (i*S/N is surjective
    // onto [0,S) when S <= N); mirrors ring_of_continents' continent_of_site
    // so shard cuts land on continent boundaries when S divides C.
    plan.shard_of[i] = static_cast<std::uint32_t>(i * plan.shards / n);
  }
  for (const Topology::Edge& e : topo.edges()) {
    if (plan.shard(e.src) == plan.shard(e.dst)) continue;
    if (e.spec.latency < plan.lookahead) plan.lookahead = e.spec.latency;
  }
  if (plan.lookahead <= SimDuration::zero()) return plan_shards(topo, 1);
  return plan;
}

}  // namespace sage::cloud
