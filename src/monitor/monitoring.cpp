#include "monitor/monitoring.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/obs.hpp"

namespace sage::monitor {

namespace {

/// NIC rate of a shard lane's dedicated probe endpoints.
constexpr ByteRate kProbeNic = ByteRate::mb_per_sec(125.0);
/// Payload of one bandwidth probe.
constexpr Bytes kProbeSize = Bytes::mb(8);
/// Interval between CPU benchmarks on each agent VM.
constexpr SimDuration kCpuProbeInterval = SimDuration::minutes(2);

}  // namespace

const LinkEstimate& ThroughputMatrix::at(cloud::Region src, cloud::Region dst) const {
  static const LinkEstimate kAbsent{};
  const std::size_t s = cloud::region_index(src);
  if (s >= rows_.size()) return kAbsent;
  const std::vector<std::int32_t>& row = rows_[s];
  const auto it = std::lower_bound(row.begin(), row.end(), dst,
                                   [this](std::int32_t id, cloud::Region d) {
                                     return entries_[static_cast<std::size_t>(id)].dst < d;
                                   });
  if (it == row.end() || entries_[static_cast<std::size_t>(*it)].dst != dst) {
    return kAbsent;
  }
  return entries_[static_cast<std::size_t>(*it)].est;
}

const std::vector<std::int32_t>& ThroughputMatrix::row(cloud::Region src) const {
  static const std::vector<std::int32_t> kEmpty;
  const std::size_t s = cloud::region_index(src);
  return s < rows_.size() ? rows_[s] : kEmpty;
}

LinkEstimate& ThroughputMatrix::slot(cloud::Region src, cloud::Region dst) {
  const std::size_t s = cloud::region_index(src);
  const std::size_t d = cloud::region_index(dst);
  ensure_regions(std::max(s, d) + 1);
  std::vector<std::int32_t>& row = rows_[s];
  const auto it = std::lower_bound(row.begin(), row.end(), dst,
                                   [this](std::int32_t id, cloud::Region to) {
                                     return entries_[static_cast<std::size_t>(id)].dst < to;
                                   });
  if (it != row.end() && entries_[static_cast<std::size_t>(*it)].dst == dst) {
    return entries_[static_cast<std::size_t>(*it)].est;
  }
  const std::int32_t id = static_cast<std::int32_t>(entries_.size());
  entries_.push_back(Entry{src, dst, LinkEstimate{}});
  row.insert(it, id);
  return entries_.back().est;
}

MonitoringService::MonitoringService(cloud::CloudProvider& provider, MonitorConfig config)
    : provider_(provider),
      engine_(provider.engine()),
      config_(config),
      region_count_(provider.topology().region_count()) {
  agents_.resize(region_count_);
  cpu_.resize(region_count_);
  pair_slot_.assign(region_count_ * region_count_, -1);
  cached_.ensure_regions(region_count_);
  if (config_.lane) {
    SAGE_CHECK_MSG(config_.lane->owns && config_.lane->relay,
                   "a shard lane needs an ownership test and a relay");
    SAGE_CHECK_MSG(config_.lane->report_delay > SimDuration::zero(),
                   "a shard lane needs a positive report delay");
  }
  if (obs::Observability* o = engine_.obs()) {
    obs_rebuilt_ = o->metrics().counter("monitor.snapshot.rebuilt");
    obs_cached_ = o->metrics().counter("monitor.snapshot.cached");
  }
}

MonitoringService::~MonitoringService() { *alive_ = false; }

void MonitoringService::register_agent(cloud::Region region, cloud::VmId vm) {
  SAGE_CHECK_MSG(provider_.is_active(vm), "agent VM must be active");
  SAGE_CHECK_MSG(provider_.vm(vm).region == region, "agent VM must live in its region");
  agents_[cloud::region_index(region)] = vm;

  auto& cpu = cpu_[cloud::region_index(region)];
  if (!cpu) cpu = make_estimator(config_.kind, EstimatorConfig{});
  maybe_create_pairs();
}

void MonitoringService::maybe_create_pairs() {
  // Monitors follow the topology's declared adjacency: only pairs that
  // physically carry traffic are probed, so monitor state is O(edges). The
  // default topology enumerates its edges row-major, which reproduces the
  // historical all-pairs creation (and probe-stagger) order exactly.
  for (const cloud::Topology::Edge& e : provider_.topology().edges()) {
    const cloud::Region a = e.src;
    const cloud::Region b = e.dst;
    if (a == b) continue;  // diagonal = intra-DC, never probed
    if (!agents_[cloud::region_index(a)] || !agents_[cloud::region_index(b)]) continue;
    if (pair_slot_[pair_index(a, b)] >= 0) continue;  // already monitored
    auto link = std::make_unique<LinkMonitor>();
    link->src = a;
    link->dst = b;
    link->estimator = make_estimator(config_.kind, EstimatorConfig{});
    LinkMonitor* raw = link.get();
    // Sharded lanes probe only the pairs they own; the monitor itself is
    // created unconditionally so links_ (stagger order, matrix shape) is
    // identical on every lane.
    if (!config_.lane || config_.lane->owns(a)) {
      link->task = std::make_unique<sim::PeriodicTask>(
          engine_, config_.probe_interval, [this, raw] { probe_link(*raw); });
      if (config_.lane) {
        link->probe_src_node = provider_.fabric().add_node(a, kProbeNic, kProbeNic);
        link->probe_dst_node = provider_.fabric().add_node(b, kProbeNic, kProbeNic);
      }
    }
    pair_slot_[pair_index(a, b)] = static_cast<std::int32_t>(links_.size());
    links_.push_back(std::move(link));
    if (running_ && links_.back()->task != nullptr) {
      // Stagger: start this pair's cadence offset by its index so probes
      // spread evenly over the interval instead of bursting together.
      const auto k = links_.size() - 1;
      const SimDuration offset =
          config_.probe_interval * (static_cast<double>(k % 16) / 16.0);
      auto alive = alive_;
      sim::PeriodicTask* task = links_.back()->task.get();
      engine_.schedule_after(offset, [alive, task] {
        if (*alive) task->start();
      });
    }
  }
}

void MonitoringService::start() {
  if (running_) return;
  running_ = true;
  std::size_t k = 0;
  for (auto& link : links_) {
    // The stagger index advances for every monitored pair, probed here or
    // not, so a sharded lane's owned probes keep the exact offsets they
    // have in the unsharded service.
    const SimDuration offset =
        config_.probe_interval * (static_cast<double>(k++ % 16) / 16.0);
    sim::PeriodicTask* task = link->task.get();
    if (task == nullptr) continue;  // remote-owned pair on a sharded lane
    auto alive = alive_;
    engine_.schedule_after(offset, [alive, task] {
      if (*alive) task->start();
    });
  }
  for (cloud::Region r : provider_.topology().regions()) {
    if (!agents_[cloud::region_index(r)]) continue;
    cpu_tasks_.push_back(std::make_unique<sim::PeriodicTask>(
        engine_, kCpuProbeInterval, [this, r] { run_cpu_probe(r); }));
    cpu_tasks_.back()->start();
  }
}

void MonitoringService::stop() {
  running_ = false;
  for (auto& link : links_) {
    if (link->task) link->task->stop();
  }
  for (auto& task : cpu_tasks_) task->stop();
  cpu_tasks_.clear();
}

void MonitoringService::probe_link(LinkMonitor& link) {
  if (link.probe_in_flight) return;  // previous probe still running
  const auto src_vm = agents_[cloud::region_index(link.src)];
  const auto dst_vm = agents_[cloud::region_index(link.dst)];
  if (!src_vm || !dst_vm) return;
  if (!provider_.is_active(*src_vm) || !provider_.is_active(*dst_vm)) return;

  if (provider_.fabric().pair_flow_count(link.src, link.dst) > 0) {
    // The link is carrying real transfers; their achieved rates arrive via
    // report_transfer_observation instead, for free.
    ++probes_suspended_;
    return;
  }

  link.probe_in_flight = true;
  ++probes_sent_;
  auto alive = alive_;
  LinkMonitor* raw = &link;
  auto on_done = [this, alive, raw](const cloud::FlowResult& r) {
    if (!*alive) return;
    raw->probe_in_flight = false;
    if (!r.ok()) return;
    accept_sample(*raw, r.achieved_rate().to_mb_per_sec());
  };
  if (config_.lane) {
    // Dedicated endpoints: the probe exercises the same WAN pair link but
    // never shares a NIC with another pair's probe or with agent traffic.
    provider_.fabric().start_flow(link.probe_src_node, link.probe_dst_node,
                                  kProbeSize, cloud::FlowOptions{},
                                  std::move(on_done));
    return;
  }
  provider_.transfer(*src_vm, *dst_vm, kProbeSize, cloud::FlowOptions{},
                     std::move(on_done));
}

void MonitoringService::accept_sample(LinkMonitor& link, double mbps) {
  if (!config_.lane) {
    ingest(link, mbps);
    return;
  }
  // Production-time relay: remote lanes receive (src, dst, mbps) through
  // the cross-shard mailboxes and ingest at +report_delay; the local lane
  // defers its own ingestion by the same delay so every lane's estimator
  // advances at the same absolute sim time.
  config_.lane->relay(link.src, link.dst, mbps);
  auto alive = alive_;
  LinkMonitor* raw = &link;
  engine_.schedule_after(config_.lane->report_delay, [this, alive, raw, mbps] {
    if (*alive) ingest(*raw, mbps);
  });
}

void MonitoringService::ingest(LinkMonitor& link, double mbps) {
  link.estimator->add_sample(engine_.now(), mbps);
  link.dirty = true;
  ++epoch_;
  if (config_.history_capacity > 0) {
    link.history.push_back(Sample{engine_.now(), mbps});
    if (link.history.size() > config_.history_capacity) link.history.pop_front();
  }
}

std::vector<Sample> MonitoringService::history(cloud::Region src, cloud::Region dst) const {
  if (const LinkMonitor* link = find_link(src, dst)) {
    return std::vector<Sample>(link->history.begin(), link->history.end());
  }
  return {};
}

void MonitoringService::run_cpu_probe(cloud::Region region) {
  const auto vm = agents_[cloud::region_index(region)];
  if (!vm || !provider_.is_active(*vm)) return;
  // The arithmetic benchmark's score is the VM's current compute factor.
  const double factor = provider_.vm_cpu_factor(*vm);
  cpu_[cloud::region_index(region)]->add_sample(engine_.now(), factor);
}

void MonitoringService::report_transfer_observation(cloud::Region src, cloud::Region dst,
                                                    ByteRate per_flow) {
  if (src == dst) return;
  if (LinkMonitor* link = find_link(src, dst)) {
    accept_sample(*link, per_flow.to_mb_per_sec());
  }
}

bool MonitoringService::ingest_sample(cloud::Region src, cloud::Region dst, double mbps) {
  LinkMonitor* link = find_link(src, dst);
  if (link == nullptr) return false;
  ingest(*link, mbps);
  return true;
}

LinkEstimate MonitoringService::estimate(cloud::Region src, cloud::Region dst) const {
  if (const LinkMonitor* link = find_link(src, dst)) {
    return LinkEstimate{link->estimator->mean(), link->estimator->stddev(),
                        link->estimator->sample_count()};
  }
  return LinkEstimate{};
}

const ThroughputMatrix& MonitoringService::snapshot() const {
  cached_.taken_at = engine_.now();
  if (cache_primed_ && cached_.epoch == epoch_) {
    // No sample landed since the last call: the entries cannot have moved.
    ++snapshots_cached_;
    if (obs_cached_ != nullptr) obs_cached_->add();
    return cached_;
  }
  for (const auto& link : links_) {
    // Only links that saw samples since the last rebuild re-query their
    // estimator; the rest keep their (identical) cached entries. Links start
    // dirty, so the first rebuild queries every one of them.
    if (!link->dirty) continue;
    cached_.slot(link->src, link->dst) =
        LinkEstimate{link->estimator->mean(), link->estimator->stddev(),
                     link->estimator->sample_count()};
    link->dirty = false;
  }
  cached_.epoch = epoch_;
  cache_primed_ = true;
  ++snapshots_rebuilt_;
  if (obs_rebuilt_ != nullptr) obs_rebuilt_->add();
  return cached_;
}

double MonitoringService::cpu_estimate(cloud::Region region) const {
  const auto& est = cpu_[cloud::region_index(region)];
  if (!est || !est->ready()) return 1.0;
  return est->mean();
}

Estimator* MonitoringService::link_estimator(cloud::Region src, cloud::Region dst) {
  LinkMonitor* link = find_link(src, dst);
  if (link == nullptr) return nullptr;
  // Mutable access may feed samples behind the service's back; treat the
  // hand-out as a mutation so the snapshot cache stays conservative.
  link->dirty = true;
  ++epoch_;
  return link->estimator.get();
}

}  // namespace sage::monitor
