#include "chaos/chaos.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/check.hpp"
#include "monitor/monitoring.hpp"

namespace sage::chaos {

namespace {

std::string time_label(SimTime t) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "t=%.3fs", (t - SimTime::epoch()).to_seconds());
  return buf;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kRegionOutage: return "region_outage";
    case FaultKind::kRegionRecover: return "region_recover";
    case FaultKind::kLatencySpike: return "latency_spike";
    case FaultKind::kCapacitySqueeze: return "capacity_squeeze";
    case FaultKind::kLossBurst: return "loss_burst";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kHeal: return "heal";
    case FaultKind::kPoisonEstimator: return "poison_estimator";
  }
  return "?";
}

std::string FaultEvent::describe() const {
  std::string out = time_label(at);
  out += ' ';
  out += to_string(kind);
  switch (kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
    case FaultKind::kLatencySpike:
    case FaultKind::kCapacitySqueeze:
    case FaultKind::kLossBurst:
    case FaultKind::kPoisonEstimator:
      out += ' ';
      out += cloud::region_code(a);
      out += "->";
      out += cloud::region_code(b);
      break;
    case FaultKind::kRegionOutage:
    case FaultKind::kRegionRecover:
      out += ' ';
      out += cloud::region_code(a);
      break;
    case FaultKind::kPartition:
    case FaultKind::kHeal:
      out += " {";
      for (std::size_t i = 0; i < group.size(); ++i) {
        if (i != 0) out += ',';
        out += cloud::region_code(group[i]);
      }
      out += '}';
      break;
  }
  char buf[64];
  if (kind == FaultKind::kCapacitySqueeze || kind == FaultKind::kPoisonEstimator) {
    std::snprintf(buf, sizeof(buf), " mag=%.3f", magnitude);
    out += buf;
  }
  if (extra > SimDuration::zero()) {
    std::snprintf(buf, sizeof(buf), " extra=%.3fs", extra.to_seconds());
    out += buf;
  }
  if (duration > SimDuration::zero()) {
    std::snprintf(buf, sizeof(buf), " dur=%.3fs", duration.to_seconds());
    out += buf;
  }
  if (count > 0) {
    std::snprintf(buf, sizeof(buf), " n=%d", count);
    out += buf;
  }
  if (abort_flows) out += " abort";
  return out;
}

FaultPlan& FaultPlan::add(FaultEvent e) {
  events.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::link_down(SimTime at, cloud::Region a, cloud::Region b,
                                SimDuration duration, bool abort_flows) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kLinkDown;
  e.a = a;
  e.b = b;
  e.duration = duration;
  e.abort_flows = abort_flows;
  return add(std::move(e));
}

FaultPlan& FaultPlan::link_up(SimTime at, cloud::Region a, cloud::Region b) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kLinkUp;
  e.a = a;
  e.b = b;
  return add(std::move(e));
}

FaultPlan& FaultPlan::region_outage(SimTime at, cloud::Region r, SimDuration duration) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kRegionOutage;
  e.a = r;
  e.duration = duration;
  return add(std::move(e));
}

FaultPlan& FaultPlan::latency_spike(SimTime at, cloud::Region a, cloud::Region b,
                                    SimDuration extra, SimDuration duration) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kLatencySpike;
  e.a = a;
  e.b = b;
  e.extra = extra;
  e.duration = duration;
  return add(std::move(e));
}

FaultPlan& FaultPlan::capacity_squeeze(SimTime at, cloud::Region a, cloud::Region b,
                                       double scale, SimDuration duration) {
  SAGE_CHECK(scale >= 0.0);
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kCapacitySqueeze;
  e.a = a;
  e.b = b;
  e.magnitude = scale;
  e.duration = duration;
  return add(std::move(e));
}

FaultPlan& FaultPlan::loss_burst(SimTime at, cloud::Region a, cloud::Region b,
                                 int flows) {
  SAGE_CHECK(flows > 0);
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kLossBurst;
  e.a = a;
  e.b = b;
  e.count = flows;
  return add(std::move(e));
}

FaultPlan& FaultPlan::partition(SimTime at, std::vector<cloud::Region> group,
                                SimDuration duration, bool abort_flows) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kPartition;
  e.duration = duration;
  e.abort_flows = abort_flows;
  e.group = std::move(group);
  return add(std::move(e));
}

FaultPlan& FaultPlan::heal(SimTime at, std::vector<cloud::Region> group) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kHeal;
  e.group = std::move(group);
  return add(std::move(e));
}

FaultPlan& FaultPlan::poison_estimator(SimTime at, cloud::Region a, cloud::Region b,
                                       double mbps, int samples) {
  SAGE_CHECK(samples > 0);
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kPoisonEstimator;
  e.a = a;
  e.b = b;
  e.magnitude = mbps;
  e.count = samples;
  return add(std::move(e));
}

void FaultPlan::sort() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& x, const FaultEvent& y) { return x.at < y.at; });
}

std::string FaultPlan::describe() const {
  std::string out;
  for (const FaultEvent& e : events) {
    out += e.describe();
    out += '\n';
  }
  return out;
}

FaultPlan FaultPlan::incident_storm(std::uint64_t seed, const cloud::Topology& topo,
                                    SimTime start, SimDuration horizon,
                                    double storms_per_day, SimDuration mean_duration) {
  SAGE_CHECK(storms_per_day > 0.0 && horizon > SimDuration::zero());
  FaultPlan plan;
  Rng rng(seed ^ 0x5706b1u);
  const double rate_per_sec = storms_per_day / 86400.0;
  double t = rng.exponential(rate_per_sec);
  const double end_s = horizon.to_seconds();
  while (t < end_s) {
    const SimTime when = start + SimDuration::seconds(t);
    // Epicenter: one region; the storm hits a correlated set of its declared
    // WAN links (both directions), sharing one storm-wide duration draw —
    // the "regional incident" the replan sweep must route around.
    const auto epicenter = cloud::make_region(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(topo.region_count()) - 1)));
    const SimDuration dur = SimDuration::seconds(
        std::max(1.0, rng.exponential(1.0 / std::max(1.0, mean_duration.to_seconds()))));
    for (const cloud::LinkSlot slot : topo.out_edges(epicenter)) {
      const cloud::Topology::Edge& e = topo.edges()[static_cast<std::size_t>(slot)];
      if (e.src == e.dst) continue;  // intra-DC links ride out storms
      if (!rng.chance(0.75)) continue;
      if (rng.chance(0.4)) {
        plan.link_down(when, e.src, e.dst, dur, /*abort_flows=*/rng.chance(0.5));
      } else {
        plan.capacity_squeeze(when, e.src, e.dst, rng.uniform(0.05, 0.4), dur);
      }
    }
    t += rng.exponential(rate_per_sec);
  }
  plan.sort();
  return plan;
}

FaultPlan FaultPlan::random(std::uint64_t seed, const cloud::Topology& topo,
                            SimTime start, SimDuration horizon, int events) {
  SAGE_CHECK(events >= 0);
  FaultPlan plan;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xc8a05);
  std::vector<std::pair<cloud::Region, cloud::Region>> pairs;
  for (const cloud::Topology::Edge& e : topo.edges()) {
    if (e.src != e.dst) pairs.emplace_back(e.src, e.dst);
  }
  if (pairs.empty()) return plan;
  const auto pick_pair = [&] {
    return pairs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pairs.size()) - 1))];
  };
  const auto pick_region = [&] {
    return cloud::make_region(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(topo.region_count()) - 1)));
  };
  for (int i = 0; i < events; ++i) {
    const SimTime at = start + SimDuration::seconds(rng.uniform(0.0, horizon.to_seconds()));
    const SimDuration dur =
        SimDuration::seconds(rng.uniform(0.05, horizon.to_seconds() * 0.5));
    const double kind = rng.uniform(0.0, 1.0);
    if (kind < 0.22) {
      const auto [a, b] = pick_pair();
      plan.link_down(at, a, b, dur, /*abort_flows=*/rng.chance(0.5));
    } else if (kind < 0.42) {
      const auto [a, b] = pick_pair();
      plan.capacity_squeeze(at, a, b, rng.uniform(0.02, 0.8), dur);
    } else if (kind < 0.55) {
      const auto [a, b] = pick_pair();
      plan.latency_spike(at, a, b, SimDuration::millis(rng.uniform(20.0, 800.0)), dur);
    } else if (kind < 0.68) {
      const auto [a, b] = pick_pair();
      plan.loss_burst(at, a, b, static_cast<int>(rng.uniform_int(1, 6)));
    } else if (kind < 0.8) {
      plan.region_outage(at, pick_region(), dur);
    } else if (kind < 0.9) {
      // Island = a contiguous prefix of the region index space (matches the
      // contiguous shard blocks, so sharded runs cut the same links).
      const std::size_t cut = static_cast<std::size_t>(
          rng.uniform_int(1, std::max<std::int64_t>(
                                 1, static_cast<std::int64_t>(topo.region_count()) - 1)));
      std::vector<cloud::Region> group;
      group.reserve(cut);
      for (std::size_t r = 0; r < cut; ++r) group.push_back(cloud::make_region(r));
      plan.partition(at, std::move(group), dur, /*abort_flows=*/rng.chance(0.5));
    } else {
      const auto [a, b] = pick_pair();
      // Garbage spans stale-zero to absurdly optimistic.
      const double mbps = rng.chance(0.5) ? 0.0 : rng.uniform(500.0, 5000.0);
      plan.poison_estimator(at, a, b, mbps, static_cast<int>(rng.uniform_int(1, 4)));
    }
  }
  plan.sort();
  return plan;
}

// -- ChaosController ---------------------------------------------------------

ChaosController::ChaosController(sim::SimEngine& engine, ChaosTargets targets,
                                 FaultPlan plan, bool enabled)
    : plan_(std::move(plan)), enabled_(enabled) {
  lanes_.push_back(std::make_unique<LaneState>(&engine, targets));
  arm();
}

ChaosController::ChaosController(sim::ShardedSimEngine& engine,
                                 std::vector<ChaosTargets> lanes, FaultPlan plan,
                                 bool enabled)
    : plan_(std::move(plan)), enabled_(enabled) {
  SAGE_CHECK_MSG(lanes.size() == engine.lane_count(),
                 "chaos: one ChaosTargets per engine lane required");
  // Faults are lane-local (each lane owns its fabric), so they go straight
  // into each lane's own queue and need no mailbox; anything a fault
  // provokes across lanes rides the normal mailbox merge, so every shard
  // count replays the identical sequence.
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    lanes_.push_back(std::make_unique<LaneState>(&engine.shard(l), lanes[l]));
  }
  arm();
}

std::uint64_t ChaosController::faults_applied() const {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l->applied;
  return n;
}

std::uint64_t ChaosController::reverts_applied() const {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l->reverted;
  return n;
}

std::uint64_t ChaosController::faults_skipped() const {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l->skipped;
  return n;
}

void ChaosController::schedule_on_lane(std::size_t lane, SimDuration delay,
                                       sim::SimEngine::Callback fn) {
  if (delay.is_negative()) delay = SimDuration::zero();
  lanes_[lane]->engine->schedule_after(delay, std::move(fn));
}

void ChaosController::arm() {
  if (!enabled_ || plan_.empty()) return;
  plan_.sort();
  for (std::size_t idx = 0; idx < plan_.events.size(); ++idx) {
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      const SimTime now = lanes_[lane]->engine->now();
      const SimDuration delay = plan_.events[idx].at - now;
      schedule_on_lane(lane, delay, [this, idx, lane] { fire(idx, lane); });
    }
  }
}

void ChaosController::fire(std::size_t event_index, std::size_t lane) {
  const FaultEvent& e = plan_.events[event_index];
  LaneState& state = *lanes_[lane];
  apply(e, state, /*is_revert=*/false);
  if (e.duration <= SimDuration::zero()) return;
  // Auto-recovery: the inverse event, scheduled on the same lane at
  // application time (never cross-lane, so no lookahead constraint).
  FaultEvent revert = e;
  revert.at = e.at + e.duration;
  revert.duration = SimDuration::zero();
  revert.abort_flows = false;
  bool has_revert = true;
  switch (e.kind) {
    case FaultKind::kLinkDown: revert.kind = FaultKind::kLinkUp; break;
    case FaultKind::kCapacitySqueeze: revert.magnitude = 1.0; break;
    case FaultKind::kLatencySpike: revert.extra = SimDuration::zero(); break;
    case FaultKind::kRegionOutage: revert.kind = FaultKind::kRegionRecover; break;
    case FaultKind::kPartition: revert.kind = FaultKind::kHeal; break;
    default: has_revert = false; break;
  }
  if (!has_revert) return;
  schedule_on_lane(lane, e.duration, [this, lane, revert = std::move(revert)] {
    apply(revert, *lanes_[lane], /*is_revert=*/true);
  });
}

void ChaosController::apply_pair_scale(const FaultEvent& e, LaneState& lane,
                                       double scale) {
  cloud::Fabric* fabric = lane.targets.fabric;
  if (fabric == nullptr || !fabric->topology().has_link(e.a, e.b)) {
    ++lane.skipped;
    return;
  }
  fabric->set_link_chaos_scale(e.a, e.b, scale, e.abort_flows);
}

void ChaosController::apply_partition(const FaultEvent& e, LaneState& lane, bool cut) {
  cloud::Fabric* fabric = lane.targets.fabric;
  if (fabric == nullptr || e.group.empty()) {
    ++lane.skipped;
    return;
  }
  const cloud::Topology& topo = fabric->topology();
  std::vector<bool> island(topo.region_count(), false);
  for (const cloud::Region r : e.group) {
    const std::size_t i = cloud::region_index(r);
    if (i < island.size()) island[i] = true;
  }
  // Edge-id order: deterministic and identical on every lane.
  for (const cloud::Topology::Edge& edge : topo.edges()) {
    if (edge.src == edge.dst) continue;
    if (island[cloud::region_index(edge.src)] == island[cloud::region_index(edge.dst)]) {
      continue;
    }
    fabric->set_link_chaos_scale(edge.src, edge.dst, cut ? 0.0 : 1.0,
                                 cut && e.abort_flows);
  }
}

void ChaosController::apply_outage(const FaultEvent& e, LaneState& lane, bool fail) {
  cloud::Fabric* fabric = lane.targets.fabric;
  if (fabric == nullptr) {
    ++lane.skipped;
    return;
  }
  const std::size_t region = cloud::region_index(e.a);
  if (lane.outage_nodes.size() <= region) lane.outage_nodes.resize(region + 1);
  std::vector<cloud::NodeId>& failed = lane.outage_nodes[region];
  if (fail) {
    // Fail every currently-healthy node of the region, node-id order.
    for (cloud::NodeId n = 0; n < fabric->node_count(); ++n) {
      if (fabric->node_region(n) != e.a || fabric->node_failed(n)) continue;
      fabric->set_node_failed(n, true);
      failed.push_back(n);
    }
  } else {
    for (const cloud::NodeId n : failed) fabric->set_node_failed(n, false);
    failed.clear();
  }
}

void ChaosController::apply(const FaultEvent& e, LaneState& lane, bool is_revert) {
  switch (e.kind) {
    case FaultKind::kLinkDown:
      apply_pair_scale(e, lane, 0.0);
      break;
    case FaultKind::kLinkUp:
      apply_pair_scale(e, lane, 1.0);
      break;
    case FaultKind::kCapacitySqueeze:
      apply_pair_scale(e, lane, std::max(e.magnitude, 0.0));
      break;
    case FaultKind::kLatencySpike: {
      cloud::Fabric* fabric = lane.targets.fabric;
      if (fabric == nullptr || !fabric->topology().has_link(e.a, e.b)) {
        ++lane.skipped;
        break;
      }
      fabric->set_link_chaos_latency(e.a, e.b, e.extra);
      break;
    }
    case FaultKind::kLossBurst: {
      cloud::Fabric* fabric = lane.targets.fabric;
      if (fabric == nullptr || !fabric->topology().has_link(e.a, e.b)) {
        ++lane.skipped;
        break;
      }
      fabric->chaos_drop_pair_flows(e.a, e.b, static_cast<std::size_t>(e.count));
      break;
    }
    case FaultKind::kRegionOutage:
      apply_outage(e, lane, /*fail=*/true);
      break;
    case FaultKind::kRegionRecover:
      apply_outage(e, lane, /*fail=*/false);
      break;
    case FaultKind::kPartition:
      apply_partition(e, lane, /*cut=*/true);
      break;
    case FaultKind::kHeal:
      apply_partition(e, lane, /*cut=*/false);
      break;
    case FaultKind::kPoisonEstimator: {
      monitor::MonitoringService* mon = lane.targets.monitoring;
      bool any = false;
      for (int i = 0; mon != nullptr && i < e.count; ++i) {
        any = mon->ingest_sample(e.a, e.b, e.magnitude) || any;
      }
      if (!any) {
        ++lane.skipped;
        return;
      }
      break;
    }
  }
  if (is_revert) {
    ++lane.reverted;
  } else {
    ++lane.applied;
  }
}

}  // namespace sage::chaos
