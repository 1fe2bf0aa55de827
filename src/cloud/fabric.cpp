#include "cloud/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/check.hpp"
#include "obs/obs.hpp"

namespace sage::cloud {

Fabric::Fabric(sim::SimEngine& engine, Topology topology, std::uint64_t seed)
    : Fabric(engine, std::make_shared<const Topology>(std::move(topology)), seed) {}

Fabric::Fabric(sim::SimEngine& engine, std::shared_ptr<const Topology> topology,
               std::uint64_t seed)
    : engine_(engine),
      topology_(std::move(topology)),
      wan_links_(topology_->edges().size()),
      rng_(seed) {
  SAGE_CHECK(topology_ != nullptr);
  pair_models_.resize(wan_links_);
  pair_live_.assign(wan_links_, 0u);
  egress_.assign(topology_->region_count(), Bytes::zero());
  link_flows_.resize(wan_links_);
  link_avail_.resize(wan_links_, 0.0);
  link_cap0_.resize(wan_links_, 0.0);
  link_count_.resize(wan_links_, 0);
  link_stamp_.resize(wan_links_, 0);
  link_visit_.resize(wan_links_, 0);
  link_root_.resize(wan_links_, 0);
  link_comp_.resize(wan_links_, 0);
  if (obs::Observability* o = engine_.obs()) {
    auto& m = o->metrics();
    obs_ = std::make_unique<ObsCells>();
    obs_->settle_rounds = m.counter("fabric.settle.rounds");
    obs_->settle_flows = m.counter("fabric.settle.flows");
    obs_->flows_started = m.counter("fabric.flows.started");
    obs_->flows_rejected = m.counter("fabric.flows.rejected");
    obs_->flows_completed = m.counter("fabric.flows.completed");
    obs_->flows_failed = m.counter("fabric.flows.failed");
    obs_->flows_cancelled = m.counter("fabric.flows.cancelled");
    obs_->flow_activations = m.counter("fabric.flows.activations");
    obs_->bytes_offered = m.counter("fabric.bytes.offered");
    obs_->bytes_moved = m.counter("fabric.bytes.moved");
    obs_->bytes_forgiven = m.counter("fabric.bytes.forgiven");
    obs_->bytes_aborted = m.counter("fabric.bytes.aborted");
    obs_->link_bytes.resize(wan_links_, nullptr);
    obs_->link_util.resize(wan_links_, nullptr);
  }
}

namespace {

// Finish time of a flow that cannot finish (settled at rate or bytes zero).
constexpr SimTime kNever = SimTime::from_micros(std::numeric_limits<std::int64_t>::max());

std::string edge_label(const Topology::Edge& e) {
  return std::string(region_name(e.src)) + "->" + std::string(region_name(e.dst));
}

}  // namespace

obs::Counter* Fabric::link_bytes_cell(std::size_t pair) {
  obs::Counter*& cell = obs_->link_bytes[pair];
  if (cell == nullptr) {
    cell = engine_.obs()->metrics().counter(
        "fabric.link.bytes", {{"link", edge_label(topology_->edges()[pair])}});
  }
  return cell;
}

obs::Gauge* Fabric::link_util_cell(std::size_t pair) {
  obs::Gauge*& cell = obs_->link_util[pair];
  if (cell == nullptr) {
    cell = engine_.obs()->metrics().gauge(
        "fabric.link.utilization", {{"link", edge_label(topology_->edges()[pair])}});
  }
  return cell;
}

namespace {

// Per-node NIC variability: moderate correlated wander plus occasional
// deep multi-minute slumps. Calibrated so a single wide-area flow (far
// below the NIC) rarely notices, while multi-flow senders — the scatter
// and forwarding roles — genuinely differ from node to node.
VariabilityParams nic_variability() {
  VariabilityParams p;
  p.diurnal_amplitude = 0.0;
  p.noise_sigma = 0.035;
  p.noise_rho = 0.95;
  p.noise_step = SimDuration::minutes(2);
  p.incidents_per_day = 8.0;
  p.incident_mean_duration = SimDuration::minutes(10);
  p.incident_depth_lo = 0.3;
  p.incident_depth_hi = 0.7;
  return p;
}

}  // namespace

NodeId Fabric::add_node(Region region, ByteRate nic_up, ByteRate nic_down) {
  SAGE_CHECK(nic_up.bytes_per_second() > 0.0 && nic_down.bytes_per_second() > 0.0);
  // Stable topologies (zero intra-DC noise) keep NICs analytic for tests.
  const bool nic_stable = topology_->link(region, region).variability.noise_sigma <= 0.0;
  nodes_.push_back(NodeInfo{region, false, nic_stable});
  node_up_.push_back(nic_up);
  node_down_.push_back(nic_down);
  node_models_.push_back(nullptr);
  const std::size_t links = wan_links_ + nodes_.size() * 2;
  link_flows_.resize(links);
  link_avail_.resize(links, 0.0);
  link_count_.resize(links, 0);
  link_stamp_.resize(links, 0);
  link_visit_.resize(links, 0);
  link_root_.resize(links, 0);
  link_comp_.resize(links, 0);
  return static_cast<NodeId>(nodes_.size() - 1);
}

template <typename Mutate>
void Fabric::mutate_scoped(std::initializer_list<std::size_t> seeds, Mutate&& mutate) {
  auto flows = take_ptrs();
  collect_components(0, seeds, flows);
  advance_flows(flows);
  auto ids = take_ids();
  ids.reserve(flows.size());
  for (const Flow* fp : flows) ids.push_back(fp->id);
  mutate();
  resolve_live(ids, flows);  // membership changed; drop the aborted flows
  put_ids(std::move(ids));
  settle_flows(flows);
  put_ptrs(std::move(flows));
}

void Fabric::set_node_failed(NodeId node, bool failed) {
  SAGE_CHECK(node < nodes_.size());
  if (nodes_[node].failed == failed) return;
  const std::size_t up = wan_links_ + static_cast<std::size_t>(node) * 2;
  mutate_scoped({up, up + 1}, [&] {
    nodes_[node].failed = failed;
    if (!failed) return;
    auto doomed = take_ids();
    for (const auto& [id, f] : flows_) {
      if (f.src == node || f.dst == node) doomed.push_back(id);
    }
    // Abort in id order so callback order does not depend on map layout.
    std::sort(doomed.begin(), doomed.end());
    for (FlowId id : doomed) finish_flow(id, FlowOutcome::kFailed);
    put_ids(std::move(doomed));
  });
}

bool Fabric::node_failed(NodeId node) const {
  SAGE_CHECK(node < nodes_.size());
  return nodes_[node].failed;
}

Region Fabric::node_region(NodeId node) const {
  SAGE_CHECK(node < nodes_.size());
  return nodes_[node].region;
}

void Fabric::set_link_chaos_scale(Region a, Region b, double scale, bool abort_flows) {
  SAGE_CHECK(scale >= 0.0);
  const std::size_t link = pair_link(a, b);
  if (chaos_scale_.empty()) {
    if (scale == 1.0 && !abort_flows) return;  // restore before any fault: no-op
    chaos_scale_.assign(wan_links_, 1.0);
  }
  if (chaos_scale_[link] == scale && !abort_flows) return;
  mutate_scoped({link}, [&] {
    chaos_scale_[link] = scale;
    if (!abort_flows) return;
    auto doomed = take_ids();
    for (const auto& [id, f] : flows_) {
      if (f.links[1] == link) doomed.push_back(id);
    }
    std::sort(doomed.begin(), doomed.end());
    for (FlowId id : doomed) finish_flow(id, FlowOutcome::kFailed);
    put_ids(std::move(doomed));
  });
}

void Fabric::set_link_chaos_latency(Region a, Region b, SimDuration extra) {
  SAGE_CHECK(!extra.is_negative());
  const std::size_t link = pair_link(a, b);
  if (chaos_latency_.empty()) {
    if (extra <= SimDuration::zero()) return;
    chaos_latency_.assign(wan_links_, SimDuration::zero());
  }
  chaos_latency_[link] = extra;
}

std::size_t Fabric::chaos_drop_pair_flows(Region a, Region b, std::size_t max_flows) {
  const std::size_t link = pair_link(a, b);
  auto doomed = take_ids();
  for (const auto& [id, f] : flows_) {
    if (f.links[1] == link) doomed.push_back(id);
  }
  std::sort(doomed.begin(), doomed.end());
  if (doomed.size() > max_flows) doomed.resize(max_flows);
  std::size_t dropped = 0;
  if (!doomed.empty()) {
    mutate_scoped({link}, [&] {
      for (FlowId id : doomed) {
        if (flows_.count(id) == 0) continue;  // the advance completed it first
        finish_flow(id, FlowOutcome::kFailed);
        ++dropped;
      }
    });
  }
  put_ids(std::move(doomed));
  return dropped;
}

ByteRate Fabric::link_capacity_now(std::size_t link) {
  if (link < wan_links_) {
    auto& model = pair_models_[link];
    if (!model) {
      const PairLinkSpec& spec = topology_->edges()[link].spec;
      model.emplace(spec.capacity, spec.variability, rng_.fork());
    }
    ByteRate cap = model->capacity_at(engine_.now());
    // Chaos overlay (empty until the first injected fault): downed links
    // scale to zero, squeezed links to a fraction. Applied after the model
    // so the underlying capacity process (and its RNG) is undisturbed.
    if (!chaos_scale_.empty()) cap = cap * chaos_scale_[link];
    return cap;
  }
  const std::size_t rel = link - wan_links_;
  const NodeId node = static_cast<NodeId>(rel / 2);
  const ByteRate nominal = (rel % 2 == 0) ? node_up_[node] : node_down_[node];
  if (nodes_[node].nic_stable) return nominal;
  auto& model = node_models_[node];
  if (!model) {
    model = std::make_unique<LinkCapacityModel>(nominal, nic_variability(), rng_.fork());
  }
  // Up and down directions share one wander process (same physical host).
  const double factor = model->capacity_at(engine_.now()).bytes_per_second() /
                        model->base().bytes_per_second();
  return nominal * factor;
}

ByteRate Fabric::pair_capacity_now(Region a, Region b) {
  return link_capacity_now(pair_link(a, b));
}

std::size_t Fabric::pair_link(Region a, Region b) const {
  const LinkSlot link = topology_->edge_index(a, b);
  SAGE_CHECK_MSG(link != kNoLink,
                 "fabric: topology declares no link between those regions");
  return static_cast<std::size_t>(link);
}

FlowId Fabric::start_flow(NodeId src, NodeId dst, Bytes size, FlowOptions options,
                          CompletionFn on_done) {
  SAGE_CHECK(src < nodes_.size() && dst < nodes_.size());
  SAGE_CHECK_MSG(src != dst, "flow endpoints must differ");
  SAGE_CHECK(size >= Bytes::zero());
  SAGE_CHECK(on_done != nullptr);

  const FlowId id = next_flow_id_++;
  const Region ra = nodes_[src].region;
  const Region rb = nodes_[dst].region;
  const PairLinkSpec& spec = topology_->link(ra, rb);

  if (nodes_[src].failed || nodes_[dst].failed) {
    if (obs_) obs_->flows_rejected->add();
    // Fail asynchronously so callers never re-enter from start_flow.
    const SimTime now = engine_.now();
    engine_.schedule_after(SimDuration::zero(), [on_done = std::move(on_done), id, now] {
      on_done(FlowResult{id, FlowOutcome::kFailed, Bytes::zero(), now, now});
    });
    return id;
  }

  Flow f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.total = size;
  f.remaining = size;
  f.spec_flow_cap = spec.per_flow_cap;
  f.option_cap = options.demand_cap.value_or(
      ByteRate::bytes_per_sec(std::numeric_limits<double>::infinity()));
  // Transient per-connection hiccup: a small fraction of connections land
  // on a transiently bad route / busy co-tenant and run far below the
  // path's nominal rate for their lifetime. Short flows (probes!) feel
  // this fully — the "temporary glitch" samples the weighted estimator is
  // designed to distrust. Disabled on noise-free links so the stable
  // topology stays analytic.
  if (spec.variability.noise_sigma > 0.0 && rng_.chance(kHiccupProbability)) {
    f.hiccup = rng_.uniform(kHiccupDepthLo, kHiccupDepthHi);
  }
  SAGE_CHECK_MSG(f.option_cap.bytes_per_second() > 0.0, "flow demand cap must be positive");
  f.started = engine_.now();
  f.on_done = std::move(on_done);
  const std::size_t pair = pair_link(ra, rb);
  f.links = {wan_links_ + static_cast<std::size_t>(src) * 2, pair,
             wan_links_ + static_cast<std::size_t>(dst) * 2 + 1};
  flows_.emplace(id, std::move(f));
  ++pair_live_[pair];
  if (obs_) {
    obs_->flows_started->add();
    obs_->bytes_offered->add(static_cast<std::uint64_t>(size.count()));
  }

  SimDuration setup = spec.latency + options.extra_setup_latency;
  if (!chaos_latency_.empty()) setup += chaos_latency_[pair];
  engine_.schedule_after(setup, [this, id] {
    auto it = flows_.find(id);
    if (it == flows_.end()) return;  // cancelled during setup
    Flow& flow = it->second;
    if (flow.remaining.is_zero()) {
      finish_flow(id, FlowOutcome::kCompleted);
      return;
    }
    flow.active = true;
    flow.last_progress = engine_.now();
    activate_flow(flow);
    auto flows = take_ptrs();
    collect_components(id, {}, flows);
    // Neighbours progress at old rates before re-settling.
    const bool one_component = advance_flows(flows);
    settle_flows(flows, one_component);
    put_ptrs(std::move(flows));
  });
  ensure_refresh_running();
  return id;
}

void Fabric::cancel_flow(FlowId id) {
  if (flows_.count(id) == 0) return;
  auto flows = take_ptrs();
  collect_components(id, {}, flows);
  bool one_component = advance_flows(flows);
  if (flows_.count(id) != 0) {  // the advance may have completed it already
    auto done = take_ids();
    done.push_back(id);
    one_component = finish_listed(flows, done, FlowOutcome::kCancelled) && one_component;
    put_ids(std::move(done));
  }
  settle_flows(flows, one_component);
  put_ptrs(std::move(flows));
}

bool Fabric::flow_active(FlowId id) const { return flows_.count(id) != 0; }

ByteRate Fabric::flow_rate(FlowId id) const {
  auto it = flows_.find(id);
  if (it == flows_.end() || !it->second.active) return ByteRate::zero();
  return it->second.rate;
}

Bytes Fabric::flow_transferred(FlowId id) const {
  auto it = flows_.find(id);
  if (it == flows_.end()) return Bytes::zero();
  const Flow& f = it->second;
  Bytes done = f.total - f.remaining;
  // Byte counters advance lazily (only the settled component is brought
  // current on a flow event), so project the settled rate forward.
  if (f.active && !f.rate.is_zero()) {
    const SimDuration dt = engine_.now() - f.last_progress;
    if (dt > SimDuration::zero()) {
      Bytes moved = f.rate * dt;
      if (moved > f.remaining) moved = f.remaining;
      done += moved;
    }
  }
  return done;
}

void Fabric::activate_flow(Flow& f) {
  if (obs_) obs_->flow_activations->add();
  // Flows usually activate in id order, so the insert is almost always an
  // append.
  active_flows_.insert(std::upper_bound(active_flows_.begin(), active_flows_.end(), f.id,
                                        [](FlowId id, const Active& a) { return id < a.id; }),
                       Active{f.id, &f, f.links[0]});
  for (int k = 0; k < 3; ++k) {
    auto& list = link_flows_[f.links[k]];
    f.link_pos[k] = static_cast<std::uint32_t>(list.size());
    list.push_back(&f);
  }
}

void Fabric::deactivate_flow(Flow& f) {
  active_flows_.erase(std::lower_bound(active_flows_.begin(), active_flows_.end(), f.id,
                                       [](const Active& a, FlowId id) { return a.id < id; }));
  for (int k = 0; k < 3; ++k) {
    auto& list = link_flows_[f.links[k]];
    Flow* tail = list.back();
    list[f.link_pos[k]] = tail;
    for (int j = 0; j < 3; ++j) {
      if (tail->links[j] == f.links[k]) {
        tail->link_pos[j] = f.link_pos[k];
        break;
      }
    }
    list.pop_back();
  }
}

void Fabric::collect_components(FlowId origin, std::initializer_list<std::size_t> seeds,
                                std::vector<Flow*>& out) {
  out.clear();
  if (++visit_epoch_ == 0) {  // stamp wrap: reset marks once per ~4e9 events
    std::fill(link_visit_.begin(), link_visit_.end(), 0u);
    for (auto& [id, f] : flows_) f.visit = 0;
    visit_epoch_ = 1;
  }
  link_queue_.clear();
  const auto mark = [&](std::size_t l) {
    if (link_visit_[l] == visit_epoch_) return;
    link_visit_[l] = visit_epoch_;
    link_queue_.push_back(l);
  };
  const auto visit = [&](Flow& f) {
    if (f.visit == visit_epoch_) return;
    f.visit = visit_epoch_;
    out.push_back(&f);
    if (!f.active) return;  // setup-phase flows occupy no links
    for (std::size_t l : f.links) mark(l);
  };
  if (auto it = flows_.find(origin); it != flows_.end()) visit(it->second);
  for (std::size_t l : seeds) mark(l);
  for (std::size_t head = 0; head < link_queue_.size(); ++head) {
    for (Flow* g : link_flows_[link_queue_[head]]) visit(*g);
  }
}

void Fabric::resolve_live(const std::vector<FlowId>& ids, std::vector<Flow*>& flows) {
  flows.clear();
  for (FlowId id : ids) {
    auto it = flows_.find(id);
    if (it != flows_.end()) flows.push_back(&it->second);
  }
}

bool Fabric::finish_listed(std::vector<Flow*>& flows, const std::vector<FlowId>& done,
                           FlowOutcome outcome) {
  // Callbacks may re-enter the fabric and finish arbitrary flows, so spell
  // the set as ids across the callbacks and re-resolve the survivors after.
  auto ids = take_ids();
  ids.reserve(flows.size());
  for (const Flow* fp : flows) ids.push_back(fp->id);
  const std::array<std::size_t, 3> links = flows_.at(done.front()).links;
  const std::uint64_t finished_before = flows_finished_;
  for (FlowId id : done) finish_flow(id, outcome);
  resolve_live(ids, flows);
  put_ids(std::move(ids));
  // A lone departure whose callback finished nothing else leaves the rest
  // of its component connected when its links stay joined.
  return done.size() == 1 && flows_finished_ - finished_before == 1 &&
         links_stay_joined(links);
}

bool Fabric::links_stay_joined(const std::array<std::size_t, 3>& links) const {
  // Any path between two remaining flows that ran through the departed flow
  // entered and left it through two of its links; a flow sharing a NIC link
  // with the pair link bridges that gap.
  bool up = link_flows_[links[0]].empty();
  bool down = link_flows_[links[2]].empty();
  for (const Flow* g : link_flows_[links[1]]) {
    if (up && down) break;
    up = up || g->links[0] == links[0];
    down = down || g->links[2] == links[2];
  }
  return up && down;
}

bool Fabric::advance_flows(std::vector<Flow*>& flows) {
  const SimTime now = engine_.now();
  auto done = take_ids();
  for (Flow* fp : flows) {
    Flow& f = *fp;
    if (!f.active) continue;
    const SimDuration dt = now - f.last_progress;
    f.last_progress = now;
    if (dt <= SimDuration::zero() || f.rate.is_zero()) continue;
    Bytes moved = f.rate * dt;
    if (moved > f.remaining) moved = f.remaining;
    f.remaining -= moved;
    const Region ra = nodes_[f.src].region;
    const Region rb = nodes_[f.dst].region;
    if (ra != rb) egress_[region_index(ra)] += moved;
    if (obs_) {
      obs_->bytes_moved->add(static_cast<std::uint64_t>(moved.count()));
      link_bytes_cell(f.links[1])->add(static_cast<std::uint64_t>(moved.count()));
    }
    // The finish time is rounded up, so a flow whose time has come has
    // moved every byte up to floating-point rounding, which is forgiven.
    if (f.remaining.is_zero() || (now >= f.completion_at && f.remaining <= Bytes::of(1))) {
      done.push_back(f.id);
    }
  }
  std::sort(done.begin(), done.end());
  // The common refresh tick (no completions) runs without a hash lookup.
  const bool one_component =
      done.empty() || finish_listed(flows, done, FlowOutcome::kCompleted);
  put_ids(std::move(done));
  return one_component;
}

void Fabric::finish_flow(FlowId id, FlowOutcome outcome) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  if (it->second.active) deactivate_flow(it->second);
  --pair_live_[it->second.links[1]];
  Flow f = std::move(it->second);
  flows_.erase(it);
  ++flows_finished_;
  f.completion.cancel();
  if (obs_) {
    switch (outcome) {
      case FlowOutcome::kCompleted:
        obs_->flows_completed->add();
        // A completed flow reports all offered bytes as transferred; the
        // final sub-byte of integer rounding is forgiven, and the
        // conservation invariant tracks it explicitly.
        obs_->bytes_forgiven->add(static_cast<std::uint64_t>(f.remaining.count()));
        break;
      case FlowOutcome::kFailed:
        obs_->flows_failed->add();
        obs_->bytes_aborted->add(static_cast<std::uint64_t>(f.remaining.count()));
        break;
      case FlowOutcome::kCancelled:
        obs_->flows_cancelled->add();
        obs_->bytes_aborted->add(static_cast<std::uint64_t>(f.remaining.count()));
        break;
    }
  }
  FlowResult result;
  result.id = id;
  result.outcome = outcome;
  result.transferred =
      outcome == FlowOutcome::kCompleted ? f.total : (f.total - f.remaining);
  result.started = f.started;
  result.finished = engine_.now();
  f.on_done(result);
}

ByteRate Fabric::flow_demand(const Flow& flow) const {
  double cap = flow.option_cap.bytes_per_second();
  const auto& model = pair_models_[flow.links[1]];
  // The per-flow TCP ceiling breathes with the pair link's congestion
  // factor (window shrinkage under cross-traffic loss); the factor is
  // fresh because settle queried the link capacity just before.
  const double factor = model ? model->last_factor() : 1.0;
  cap = std::min(cap, flow.spec_flow_cap.bytes_per_second() * factor * flow.hiccup);
  return ByteRate::bytes_per_sec(std::max(cap, 1.0));
}

std::size_t Fabric::link_root(std::size_t link) {
  while (link_root_[link] != link) {
    link_root_[link] = link_root_[link_root_[link]];  // path halving
    link = link_root_[link];
  }
  return link;
}

void Fabric::settle_flows(const std::vector<Flow*>& flows, bool one_component) {
  if (++stamp_ == 0) {
    std::fill(link_stamp_.begin(), link_stamp_.end(), 0u);
    stamp_ = 1;
  }
  touched_links_.clear();
  to_reschedule_.clear();
  FlowId lo = std::numeric_limits<FlowId>::max();
  double min_demand = std::numeric_limits<double>::infinity();
  for (Flow* fp : flows) {
    if (!fp->active) continue;
    Flow& f = *fp;
    lo = std::min(lo, f.id);
    to_reschedule_.push_back(&f);
    for (std::size_t l : f.links) {
      if (link_stamp_[l] != stamp_) {
        link_stamp_[l] = stamp_;
        link_avail_[l] = link_capacity_now(l).bytes_per_second();
        // Capacity snapshot for the utilization gauges, so obs makes no
        // capacity query of its own (a first query at a new instant draws
        // from the link's RNG). Only region-pair links are gauged; node
        // NIC links sit past wan_links_.
        if (obs_ && l < wan_links_) link_cap0_[l] = link_avail_[l];
        link_count_[l] = 0;
        link_root_[l] = static_cast<std::uint32_t>(l);
        touched_links_.push_back(l);
      }
      ++link_count_[l];
    }
    // The pair link was just queried, so its congestion factor is current.
    f.demand = flow_demand(f).bytes_per_second();
    f.filled = false;
    min_demand = std::min(min_demand, f.demand);
  }
  const std::size_t settled = to_reschedule_.size();
  if (settled == 0) return;
  if (obs_) {
    obs_->settle_rounds->add();
    obs_->settle_flows->add(settled);
  }

  // Each link-connected component settles on its own, in a canonical order:
  // flows by id (the order of the link_avail_ subtractions), bottleneck ties
  // to the lowest link index. A flow's rate is then a function of its own
  // component only — not of unrelated traffic in the same settle, nor of the
  // activation history — which is what makes completion times invariant
  // when flows are re-partitioned across fabrics.
  //
  // Components are laid out back to back: component c owns links
  // [link_start_[c], link_start_[c + 1]) and comp_flows_[flow_start_[c],
  // flow_start_[c + 1]). Whole components come in, so an active flow is in
  // this settle exactly when its links were stamped, and a scan of the
  // id-sorted active list yields every component's flows in id order.
  // A caller that knows its flows form one component spares the labelling.
  const bool isolated = settled > 1 && touched_links_.size() == 3 * settled;  // no shared link
  std::size_t comps = settled == 1 || one_component ? 1
                      : isolated                    ? settled
                                                    : touched_links_.size();
  if (comps > 1 && !isolated) {  // union-find over the touched links
    for (const Flow* f : to_reschedule_) {
      if (comps == 1) break;  // every touched link is joined already
      const std::size_t root = link_root(f->links[1]);
      for (std::size_t l : {f->links[0], f->links[2]}) {
        const std::size_t other = link_root(l);
        if (other == root) continue;
        link_root_[other] = static_cast<std::uint32_t>(root);
        --comps;
      }
    }
  }
  if (flow_start_.size() < comps + 1) {
    flow_start_.resize(comps + 1);
    link_start_.resize(comps + 1);
    cursor_.resize(comps + 1);
  }
  if (comp_flows_.size() < settled) comp_flows_.resize(settled);
  if (comp_links_.size() < touched_links_.size()) comp_links_.resize(touched_links_.size());
  const std::size_t* links = comp_links_.data();
  flow_start_[0] = 0;
  link_start_[0] = 0;
  if (comps == 1) {
    flow_start_[1] = settled;
    link_start_[1] = touched_links_.size();
    links = touched_links_.data();
  } else if (!isolated) {
    // Number the components by their roots, count each one's links, and
    // its flows through their up links (every flow has exactly one), then
    // place the links.
    std::uint32_t next = 0;
    for (std::size_t l : touched_links_) {
      if (link_root_[l] != l) continue;
      link_comp_[l] = next++;
      link_start_[next] = 0;
      flow_start_[next] = 0;
    }
    for (std::size_t l : touched_links_) {
      const std::uint32_t c = link_comp_[link_root(l)];
      link_comp_[l] = c;
      ++link_start_[c + 1];
      if (l >= wan_links_ && (l - wan_links_) % 2 == 0) flow_start_[c + 1] += link_count_[l];
    }
    for (std::size_t c = 0; c < comps; ++c) {
      link_start_[c + 1] += link_start_[c];
      flow_start_[c + 1] += flow_start_[c];
    }
    std::copy(link_start_.begin(), link_start_.begin() + comps, cursor_.begin());
    for (std::size_t l : touched_links_) comp_links_[cursor_[link_comp_[l]]++] = l;
    std::copy(flow_start_.begin(), flow_start_.begin() + comps, cursor_.begin());
  }
  std::size_t seen = 0;
  if (settled == 1) comp_flows_[seen++] = to_reschedule_[0];
  for (auto it = std::lower_bound(active_flows_.begin(), active_flows_.end(), lo,
                                  [](const Active& a, FlowId id) { return a.id < id; });
       seen < settled && it != active_flows_.end(); ++it) {
    if (link_stamp_[it->up] != stamp_) continue;
    if (comps == 1) {
      comp_flows_[seen] = it->flow;
    } else if (isolated) {  // component `seen` is this flow and its three links
      std::copy(it->flow->links.begin(), it->flow->links.end(), comp_links_.begin() + 3 * seen);
      flow_start_[seen + 1] = seen + 1;
      link_start_[seen + 1] = 3 * (seen + 1);
      comp_flows_[seen] = it->flow;
    } else {
      comp_flows_[cursor_[link_comp_[it->up]]++] = it->flow;
    }
    ++seen;
  }
  SAGE_CHECK(seen == settled);

  const auto settle_flow = [this](Flow* f, double rate) {
    f->rate = ByteRate::bytes_per_sec(rate);
    f->filled = true;
    for (std::size_t l : f->links) {
      link_avail_[l] -= rate;
      --link_count_[l];
    }
  };
  // Progressive water-filling with per-flow demand ceilings. A demand round
  // settles flows in id order and compacts the rest to the front of the
  // component's range, keeping their order. A bottleneck round pins every
  // unsettled flow on the bottleneck link to the same share, so it walks
  // that link's list in any order: each link it touches loses `share` once
  // per flow, and the result does not depend on the order of equal
  // subtractions. Flows it settles drop out of the range at the next
  // demand round.
  const auto water_fill = [&](std::size_t c) {
    const std::size_t first = flow_start_[c];
    std::size_t end = flow_start_[c + 1];
    std::size_t left = end - first;  // unsettled flows
    double least = min_demand;       // lower bound on their smallest demand
    while (left > 0) {
      double share = std::numeric_limits<double>::infinity();
      std::size_t bottleneck = static_cast<std::size_t>(-1);
      for (std::size_t k = link_start_[c]; k < link_start_[c + 1]; ++k) {
        const std::size_t l = links[k];
        if (link_count_[l] <= 0) continue;
        const double s = std::max(link_avail_[l], 0.0) / static_cast<double>(link_count_[l]);
        if (s < share || (s == share && l < bottleneck)) {
          share = s;
          bottleneck = l;
        }
      }
      SAGE_CHECK(bottleneck != static_cast<std::size_t>(-1));

      // Demand-limited flows settle below the fair share first. No flow
      // can be when even the smallest demand exceeds the share.
      if (least <= share + 1e-9) {
        const std::size_t before = left;
        least = std::numeric_limits<double>::infinity();
        std::size_t kept = first;
        for (std::size_t i = first; i < end; ++i) {
          Flow* f = comp_flows_[i];
          if (f->filled) continue;
          if (f->demand <= share + 1e-9) {
            settle_flow(f, f->demand);
            --left;
          } else {
            comp_flows_[kept++] = f;
            least = std::min(least, f->demand);
          }
        }
        end = kept;
        if (left < before) continue;
      }

      // Otherwise the bottleneck link pins everyone crossing it at the share.
      for (Flow* f : link_flows_[bottleneck]) {
        if (f->filled) continue;
        settle_flow(f, share);
        --left;
      }
    }
  };
  for (std::size_t c = 0; c < comps; ++c) water_fill(c);

  if (obs_) {
    // Post-settlement utilization of every region-pair link this component
    // touched: allocated / capacity-at-stamp-time.
    for (std::size_t l : touched_links_) {
      if (l >= wan_links_ || link_cap0_[l] <= 0.0) continue;
      const double used = link_cap0_[l] - std::max(link_avail_[l], 0.0);
      link_util_cell(l)->set(used / link_cap0_[l]);
    }
  }

  // One completion event per component, held by its earliest flow (ties to
  // the lowest id). A finish time is now plus the remaining bytes' time at
  // the new rate, rounded up to whole microseconds, so the event finds its
  // flows' last bytes moved. A flow that cannot finish (rate or bytes zero)
  // gets none. A component is numbered 0 when it is the only one, by its
  // flow when no flows share a link, and by its label otherwise.
  const SimTime now = engine_.now();
  finish_at_.resize(settled);
  comp_lead_.assign(comps, settled);
  const auto comp_of = [&](std::size_t i) -> std::size_t {
    if (comps == 1) return 0;
    return isolated ? i : link_comp_[to_reschedule_[i]->links[0]];
  };
  for (std::size_t i = 0; i < settled; ++i) {
    const Flow* f = to_reschedule_[i];
    if (f->rate.is_zero() || f->remaining.is_zero()) {
      finish_at_[i] = kNever;
      continue;
    }
    // Clamped far below the int64 range; a flow that slow never finishes
    // inside a run anyway.
    const double us = std::ceil(static_cast<double>(f->remaining.count()) /
                                f->rate.bytes_per_second() * 1e6);
    finish_at_[i] = now + SimDuration::micros(std::max<std::int64_t>(
                              1, static_cast<std::int64_t>(std::min(us, 1e18))));
    std::size_t& lead = comp_lead_[comp_of(i)];
    if (lead == settled || finish_at_[i] < finish_at_[lead] ||
        (finish_at_[i] == finish_at_[lead] && f->id < to_reschedule_[lead]->id)) {
      lead = i;
    }
  }
  for (std::size_t i = 0; i < settled; ++i) {
    Flow* f = to_reschedule_[i];
    const SimTime target = finish_at_[i];
    if (comp_lead_[comp_of(i)] != i) {
      f->completion.cancel();
    } else if (!f->completion.pending() || f->completion_at != target) {
      if (!engine_.reschedule(f->completion, target)) {
        const FlowId fid = f->id;
        f->completion = engine_.schedule_at(target, [this, fid] { on_completion(fid); });
      }
    }
    f->completion_at = target;
  }
}

void Fabric::on_completion(FlowId id) {
  auto flows = take_ptrs();
  collect_components(id, {}, flows);
  const bool one_component = advance_flows(flows);
  settle_flows(flows, one_component);
  put_ptrs(std::move(flows));
}

void Fabric::refresh_tick() {
  if (flows_.empty()) return;  // goes dormant; restarted by next start_flow
  auto flows = take_ptrs();
  for (const Active& a : active_flows_) flows.push_back(a.flow);
  advance_flows(flows);
  settle_flows(flows);
  put_ptrs(std::move(flows));
  schedule_refresh();
}

void Fabric::ensure_refresh_running() {
  if (refresh_event_.pending()) return;
  schedule_refresh();
}

void Fabric::schedule_refresh() {
  // Next tick at the next absolute multiple of the period, not one period
  // after whichever flow woke the fabric: byte progress truncates at every
  // advancement point, so the tick grid is observable in completion times,
  // and a shared absolute grid keeps them independent of how flows are
  // partitioned across fabrics and of when each one went dormant.
  const std::int64_t per = refresh_period_.count_micros();
  const std::int64_t next = (engine_.now().count_micros() / per + 1) * per;
  refresh_event_ = engine_.schedule_at(SimTime::from_micros(next), [this] { refresh_tick(); });
}

std::vector<FlowId> Fabric::take_ids() {
  if (id_pool_.empty()) return {};
  std::vector<FlowId> v = std::move(id_pool_.back());
  id_pool_.pop_back();
  v.clear();
  return v;
}

void Fabric::put_ids(std::vector<FlowId>&& v) { id_pool_.push_back(std::move(v)); }

std::vector<Fabric::Flow*> Fabric::take_ptrs() {
  if (ptr_pool_.empty()) return {};
  std::vector<Flow*> v = std::move(ptr_pool_.back());
  ptr_pool_.pop_back();
  v.clear();
  return v;
}

void Fabric::put_ptrs(std::vector<Flow*>&& v) { ptr_pool_.push_back(std::move(v)); }

}  // namespace sage::cloud
