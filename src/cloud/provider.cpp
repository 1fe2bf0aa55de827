#include "cloud/provider.hpp"

#include "common/check.hpp"

namespace sage::cloud {
namespace {

// Multi-tenant CPU wander: small correlated noise, rare deeper dips — the
// "over-tasked CPU" effect the measurements attribute to co-tenants.
VariabilityParams cpu_variability() {
  VariabilityParams p;
  p.diurnal_amplitude = 0.05;
  p.noise_sigma = 0.03;
  p.noise_rho = 0.9;
  p.noise_step = SimDuration::seconds(10);
  p.incidents_per_day = 1.0;
  p.incident_mean_duration = SimDuration::minutes(3);
  p.incident_depth_lo = 0.5;
  p.incident_depth_hi = 0.8;
  return p;
}

}  // namespace

CloudProvider::CloudProvider(sim::SimEngine& engine, Topology topology, std::uint64_t seed)
    : CloudProvider(engine, std::make_shared<const Topology>(std::move(topology)), seed) {}

CloudProvider::CloudProvider(sim::SimEngine& engine,
                             std::shared_ptr<const Topology> topology,
                             std::uint64_t seed)
    : engine_(engine), rng_(seed) {
  fabric_ = std::make_unique<Fabric>(engine_, std::move(topology), rng_.next_u64());
  // Region order defines blob RNG fork order — identical to the historical
  // kAllRegions loop for the default topology.
  const std::size_t n = fabric_->topology().region_count();
  blobs_.reserve(n);
  for (Region r : fabric_->topology().regions()) {
    blobs_.push_back(std::make_unique<BlobService>(engine_, *fabric_, r, pricing_,
                                                   meter_, rng_.next_u64()));
  }
  egress_billed_.assign(n, Bytes::zero());
}

VmHandle CloudProvider::provision(Region region, VmSize size) {
  const VmSpec spec = vm_spec(size);
  VmHandle handle;
  handle.id = static_cast<VmId>(vms_.size());
  handle.node = fabric_->add_node(region, spec.nic, spec.nic);
  handle.region = region;
  handle.size = size;
  // CPU "capacity" expressed as a rate so the link model can animate it;
  // only the relative factor is ever read back.
  LinkCapacityModel cpu(ByteRate::bytes_per_sec(1e9 * spec.compute_factor),
                        cpu_variability(), rng_.fork());
  vms_.push_back(VmRecord{handle, engine_.now(), true, std::move(cpu)});
  return handle;
}

void CloudProvider::release(VmId id) {
  SAGE_CHECK(id < vms_.size());
  VmRecord& rec = vms_[id];
  if (!rec.active) return;
  rec.active = false;
  meter_.add_vm_lease(
      pricing_.vm_lease(rec.handle.size, engine_.now() - rec.lease_start));
  fabric_->set_node_failed(rec.handle.node, true);
}

void CloudProvider::release_all() {
  for (const VmRecord& rec : vms_) {
    if (rec.active) release(rec.handle.id);
  }
}

void CloudProvider::fail_vm(VmId id) {
  // Billing-wise identical to a release at the failure instant; the
  // distinction (who initiated it) lives in the layers above.
  release(id);
}

bool CloudProvider::is_active(VmId id) const {
  SAGE_CHECK(id < vms_.size());
  return vms_[id].active;
}

const VmHandle& CloudProvider::vm(VmId id) const {
  SAGE_CHECK(id < vms_.size());
  return vms_[id].handle;
}

std::size_t CloudProvider::active_vm_count() const {
  std::size_t n = 0;
  for (const VmRecord& rec : vms_) {
    if (rec.active) ++n;
  }
  return n;
}

double CloudProvider::vm_cpu_factor(VmId id) {
  SAGE_CHECK(id < vms_.size());
  VmRecord& rec = vms_[id];
  (void)rec.cpu_model.capacity_at(engine_.now());
  return rec.cpu_model.last_factor();
}

FlowId CloudProvider::transfer(VmId src, VmId dst, Bytes size, FlowOptions options,
                               Fabric::CompletionFn on_done) {
  SAGE_CHECK(src < vms_.size() && dst < vms_.size());
  return fabric_->start_flow(vms_[src].handle.node, vms_[dst].handle.node, size, options,
                             std::move(on_done));
}

CostReport CloudProvider::cost_report() {
  // Egress: bill only the delta since the last report (the fabric counter
  // is cumulative).
  for (Region r : fabric_->topology().regions()) {
    const Bytes total = fabric_->egress_from(r);
    const Bytes delta = total - egress_billed_[region_index(r)];
    if (delta > Bytes::zero()) {
      // Egress is cross-region by construction of the fabric counter; the
      // destination region does not affect the 2013 price book.
      meter_.add_egress(pricing_.egress_per_gb(r) * delta.to_gb());
      egress_billed_[region_index(r)] = total;
    }
  }
  for (auto& blob : blobs_) blob->accrue_storage();

  CostReport report = meter_.report();
  // Add the accrual of still-active leases without finalizing them.
  for (const VmRecord& rec : vms_) {
    if (rec.active) {
      report.vm_lease +=
          pricing_.vm_lease(rec.handle.size, engine_.now() - rec.lease_start);
    }
  }
  return report;
}

}  // namespace sage::cloud
