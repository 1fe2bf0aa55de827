#include "core/sage.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/obs.hpp"

namespace sage::core {

SageEngine::SageEngine(cloud::CloudProvider& provider, SageConfig config)
    : provider_(provider),
      engine_(provider.engine()),
      config_(std::move(config)),
      pool_(provider, config_.agent_vm),
      // The model, the planner and every transfer run at their default
      // parameters: the user's one lever is the Tradeoff.
      cost_model_(provider.pricing(), model::ModelParams{}),
      solver_(cost_model_),
      planner_(sched::PlannerParams{}) {
  SAGE_CHECK_MSG(config_.regions.size() >= 2, "a SAGE deployment spans at least two sites");
  SAGE_CHECK(config_.helpers_per_region >= 0);
  SAGE_CHECK(config_.gateways_per_region >= 1);
  SAGE_CHECK(config_.replan_threshold >= 0.0);
  planner_.set_obs(engine_.obs());
  if (obs::Observability* o = engine_.obs(); o != nullptr) {
    obs_replan_skipped_ = o->metrics().counter("sched.replan.skipped");
  }
  if (config_.adapt_interval > SimDuration::zero()) {
    replan_task_ = std::make_unique<sim::PeriodicTask>(
        engine_, config_.adapt_interval, [this] { replan_sweep(); });
  }
  monitoring_ =
      std::make_unique<monitor::MonitoringService>(provider_, config_.monitoring);
}

SageEngine::~SageEngine() {
  *alive_ = false;
  if (deployed_) shutdown();
}

void SageEngine::deploy() {
  SAGE_CHECK_MSG(!deployed_, "deploy() is one-shot");
  deployed_ = true;
  for (cloud::Region r : config_.regions) {
    monitoring_->register_agent(r, pool_.gateway(r));
  }
  monitoring_->start();
  if (config_.health_check_interval > SimDuration::zero()) {
    health_task_ = std::make_unique<sim::PeriodicTask>(
        engine_, config_.health_check_interval, [this] { health_check(); });
    health_task_->start();
  }
}

void SageEngine::health_check() {
  const std::size_t replaced = pool_.heal();
  if (replaced == 0) return;
  vms_healed_ += replaced;
  // Re-register agents: a healed gateway means the region's monitoring
  // agent may have been among the casualties.
  for (cloud::Region r : config_.regions) {
    monitoring_->register_agent(r, pool_.gateway(r));
  }
}

void SageEngine::shutdown() {
  if (!deployed_) return;
  deployed_ = false;
  if (health_task_) health_task_->stop();
  if (replan_task_) replan_task_->stop();
  monitoring_->stop();
  for (auto& live : live_) {
    if (!live->transfer->finished()) live->transfer->cancel();
  }
  live_.clear();
  pool_.release_all();
}

sched::Inventory SageEngine::inventory(cloud::Region src, cloud::Region dst) const {
  sched::Inventory inv{};
  for (cloud::Region r : config_.regions) {
    // Shard-local lanes: interior regions read as empty, so the planner can
    // only widen the direct route with source-region scatter helpers —
    // every resulting flow stays on links the source's shard owns.
    if (config_.monitoring.lane && r != src && r != dst) continue;
    inv[cloud::region_index(r)] = config_.helpers_per_region;
  }
  return inv;
}

std::vector<net::Lane> SageEngine::build_lanes(const sched::MultiPathPlan& plan,
                                               cloud::VmId src_gw, cloud::VmId dst_gw,
                                               cloud::Region src) {
  std::vector<net::Lane> lanes;
  // Per-region helper cursors so distinct lanes get distinct VMs.
  std::vector<int> cursor(provider_.topology().region_count(), 0);
  bool first_lane = true;

  for (const sched::PlannedPath& p : plan.paths) {
    for (int w = 0; w < p.width; ++w) {
      net::Lane lane;
      lane.path.push_back(src_gw);
      if (!first_lane) {
        // Local scatter helper in the source region: the gateway feeds it
        // over the fast intra-DC link, it sends over the WAN in parallel.
        const int idx = cursor[cloud::region_index(src)]++;
        lane.path.push_back(pool_.helpers(src, idx + 1)[static_cast<std::size_t>(idx)]);
      }
      first_lane = false;
      for (std::size_t i = 1; i + 1 < p.route.regions.size(); ++i) {
        const cloud::Region hop = p.route.regions[i];
        const int idx = cursor[cloud::region_index(hop)]++;
        lane.path.push_back(pool_.helpers(hop, idx + 1)[static_cast<std::size_t>(idx)]);
      }
      lane.path.push_back(dst_gw);
      lanes.push_back(std::move(lane));
    }
  }
  if (lanes.empty()) lanes = net::direct_lane(src_gw, dst_gw);
  return lanes;
}

void SageEngine::send(cloud::Region src, cloud::Region dst, Bytes size, DoneFn done) {
  send_with(config_.tradeoff, src, dst, size, std::move(done));
}

void SageEngine::send_with(const model::Tradeoff& tradeoff, cloud::Region src,
                           cloud::Region dst, Bytes size, DoneFn done) {
  SAGE_CHECK_MSG(deployed_, "deploy() the engine before sending");
  SAGE_CHECK(done != nullptr);
  reap();

  SendRecord record;
  record.src = src;
  record.dst = dst;
  record.size = size;

  const monitor::ThroughputMatrix& matrix = monitoring_->snapshot();
  const monitor::LinkEstimate& direct = matrix.at(src, dst);

  sched::MultiPathPlan plan;
  if (direct.ready()) {
    model::TradeoffInputs inputs;
    inputs.size = size;
    inputs.link = direct;
    inputs.vm_size = config_.agent_vm;
    inputs.src = src;
    inputs.dst = dst;
    inputs.max_nodes = 1 + config_.helpers_per_region;
    const model::TransferEstimate estimate =
        resolve_cache_.resolve(solver_, inputs, tradeoff, matrix.epoch);
    record.estimate = estimate;
    plan = plan_for(matrix, src, dst, estimate.nodes);
  }
  // Fallback: without monitoring data (cold start) SAGE degrades to a
  // direct transfer — never refuses to move data.

  cloud::VmId src_gw;
  cloud::VmId dst_gw;
  if (config_.monitoring.lane) {
    // One fresh endpoint pair per send, released on completion: transfers
    // from differently-owned source regions never share a destination NIC,
    // so their rates are independent of how the regions are sharded.
    src_gw = provider_.provision(src, config_.agent_vm).id;
    dst_gw = provider_.provision(dst, config_.agent_vm).id;
  } else {
    // Round-robin this send's endpoints across the configured gateway pool.
    const auto pick = static_cast<std::size_t>(
        send_counter_++ % static_cast<std::uint64_t>(config_.gateways_per_region));
    src_gw = pool_.gateways(src, config_.gateways_per_region)[pick];
    dst_gw = pool_.gateways(dst, config_.gateways_per_region)[pick];
  }

  auto live = std::make_unique<LiveTransfer>();
  live->plan = plan;
  live->record_index = history_.size();
  live->src = src;
  live->dst = dst;
  live->src_gw = src_gw;
  live->dst_gw = dst_gw;
  live->owns_endpoints = config_.monitoring.lane.has_value();
  live->last_eval_epoch = matrix.epoch;
  std::vector<net::Lane> lanes = build_lanes(plan, src_gw, dst_gw, src);
  record.lanes_used = static_cast<int>(lanes.size());
  history_.push_back(record);

  const SimTime began = engine_.now();
  LiveTransfer* raw = live.get();
  auto alive = alive_;
  live->transfer = std::make_unique<net::GeoTransfer>(
      provider_, size, std::move(lanes), net::TransferConfig{},
      [this, alive, raw, src, dst, size, began,
       done = std::move(done)](const net::TransferResult& r) {
        if (!*alive) return;
        SendRecord& rec = history_[raw->record_index];
        rec.ok = r.ok;
        rec.elapsed = engine_.now() - began;
        rec.stats = r.stats;
        if (r.ok && rec.elapsed > SimDuration::zero() && rec.lanes_used > 0) {
          // Feed the achieved per-lane rate back into the map.
          const ByteRate per_lane =
              (size / rec.elapsed) / static_cast<double>(rec.lanes_used);
          monitoring_->report_transfer_observation(src, dst, per_lane);
        }
        if (raw->owns_endpoints) {
          if (provider_.is_active(raw->src_gw)) provider_.release(raw->src_gw);
          if (provider_.is_active(raw->dst_gw)) provider_.release(raw->dst_gw);
          raw->owns_endpoints = false;
        }
        done(stream::SendOutcome{r.ok, rec.elapsed});
      });

  if (replan_task_ && !replan_task_->running()) replan_task_->start();
  live->transfer->start();
  live_.push_back(std::move(live));
}

SageEngine::RuntimeStats SageEngine::runtime_stats() const {
  RuntimeStats s;
  s.now = engine_.now();
  s.events_scheduled = engine_.events_scheduled();
  s.events_fired = engine_.events_fired();
  s.events_cancelled = engine_.events_cancelled();
  s.events_live = engine_.live_events();
  return s;
}

std::size_t SageEngine::replan_sweep() {
  reap();
  if (live_.empty()) {
    // Nothing to adapt; park the sweep until the next send restarts it.
    if (replan_task_) replan_task_->stop();
    return 0;
  }
  const monitor::ThroughputMatrix& matrix = monitoring_->snapshot();
  std::size_t examined = 0;
  for (auto& live : live_) {
    if (live->last_eval_epoch == matrix.epoch) {
      // No sample landed since this transfer was last planned: a re-plan
      // would reproduce the executing plan exactly and the threshold test
      // (strict improvement) could never pass, so skipping is a pure
      // elision that never changes a decision.
      ++replans_skipped_;
      if (obs_replan_skipped_ != nullptr) obs_replan_skipped_->add();
      continue;
    }
    adapt_transfer(*live, matrix);
    live->last_eval_epoch = matrix.epoch;
    ++examined;
  }
  return examined;
}

void SageEngine::adapt_transfer(LiveTransfer& live,
                                const monitor::ThroughputMatrix& matrix) {
  if (live.transfer->finished()) return;
  if (!matrix.at(live.src, live.dst).ready()) return;
  const int budget = std::max(live.plan.nodes_used, 1);
  sched::MultiPathPlan fresh = plan_for(matrix, live.src, live.dst, budget);
  if (fresh.empty()) return;
  const bool materially_better =
      fresh.total_mbps > live.plan.total_mbps * (1.0 + config_.replan_threshold);
  if (!materially_better) return;
  live.transfer->reset_lanes(build_lanes(fresh, live.src_gw, live.dst_gw, live.src));
  live.plan = fresh;
  ++history_[live.record_index].replans;
}

const sched::MultiPathPlan& SageEngine::plan_for(const monitor::ThroughputMatrix& matrix,
                                                 cloud::Region src, cloud::Region dst,
                                                 int node_budget) {
  return plan_cache_.plan(planner_, matrix, src, dst, inventory(src, dst), node_budget);
}

void SageEngine::reap() {
  std::erase_if(live_, [](const auto& t) { return t->transfer->finished(); });
}

void SageEngine::disseminate(cloud::Region src, const std::vector<cloud::Region>& targets,
                             Bytes size, DisseminateFn done) {
  SAGE_CHECK_MSG(deployed_, "deploy() the engine before disseminating");
  SAGE_CHECK(done != nullptr);
  SAGE_CHECK(!targets.empty());

  sched::BroadcastTree tree = sched::widest_tree(monitoring_->snapshot(), src, targets);
  if (tree.empty()) {
    // Cold map: a source-rooted star (parallel unicast shape).
    for (cloud::Region t : targets) {
      if (t != src) tree.edges.push_back(sched::BroadcastEdge{src, t, 0.0});
    }
    tree.root = src;
  }
  SAGE_CHECK_MSG(!tree.edges.empty(), "dissemination tree has no edges");

  // Map the region tree onto gateway VMs. Regions appear in dissemination
  // order, so parents always precede children.
  std::vector<net::TreeNode> nodes;
  std::vector<int> index(provider_.topology().region_count(), -1);
  nodes.push_back(net::TreeNode{pool_.gateway(src), -1});
  index[cloud::region_index(src)] = 0;
  std::vector<cloud::Region> node_region = {src};
  for (const sched::BroadcastEdge& e : tree.edges) {
    const int parent = index[cloud::region_index(e.from)];
    SAGE_CHECK(parent >= 0);
    index[cloud::region_index(e.to)] = static_cast<int>(nodes.size());
    nodes.push_back(net::TreeNode{pool_.gateway(e.to), parent});
    node_region.push_back(e.to);
  }

  std::erase_if(live_trees_, [](const auto& t) { return t->finished(); });
  const int edge_count = static_cast<int>(tree.edges.size());
  const SimTime began = engine_.now();
  auto alive = alive_;
  live_trees_.push_back(std::make_unique<net::TreeTransfer>(
      provider_, size, std::move(nodes), net::TransferConfig{},
      [alive, done = std::move(done), node_region, edge_count,
       began](const net::TreeResult& r) {
        if (!*alive) return;
        DisseminateResult result;
        result.ok = r.ok;
        result.elapsed = r.finished - began;
        result.tree_edges = edge_count;
        for (std::size_t i = 1; i < node_region.size(); ++i) {
          if (i < r.node_completion.size()) {
            result.arrivals.emplace_back(node_region[i], r.node_completion[i]);
          }
        }
        std::sort(result.arrivals.begin(), result.arrivals.end(),
                  [](const auto& a, const auto& b) { return a.second < b.second; });
        done(result);
      }));
  live_trees_.back()->start();
}

std::unique_ptr<stream::StreamRuntime> SageEngine::run_job(
    stream::JobGraph graph, stream::RuntimeConfig runtime_config) {
  SAGE_CHECK_MSG(deployed_, "deploy() the engine before running jobs");
  return std::make_unique<stream::StreamRuntime>(provider_, std::move(graph), *this,
                                                 runtime_config);
}

}  // namespace sage::core
