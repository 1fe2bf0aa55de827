// The simulated cloud provider facade — SAGE's substitute for the Azure SDK.
//
// Everything above this layer (monitoring, transfer substrate, scheduler,
// streaming engine) consumes the cloud exclusively through this interface:
// provision/release VMs, open flows between them, use per-region blob
// services, query the price book, read the accrued bill. Swapping in a real
// provider would mean re-implementing exactly this class.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cloud/blob.hpp"
#include "cloud/cost.hpp"
#include "cloud/fabric.hpp"
#include "cloud/pricing.hpp"
#include "cloud/region.hpp"
#include "cloud/topology.hpp"
#include "cloud/vm.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "simcore/engine.hpp"

namespace sage::cloud {

using VmId = std::uint32_t;

/// A leased virtual machine.
struct VmHandle {
  VmId id = 0;
  NodeId node = kInvalidNode;
  Region region = Region::kNorthEU;
  VmSize size = VmSize::kSmall;
};

class CloudProvider {
 public:
  /// Build a provider over the given topology. All stochastic behaviour
  /// derives from `seed`.
  CloudProvider(sim::SimEngine& engine, Topology topology, std::uint64_t seed);

  /// Shared-topology overload for sharded deployments: S per-lane providers
  /// reference one immutable Topology instead of carrying S copies.
  CloudProvider(sim::SimEngine& engine, std::shared_ptr<const Topology> topology,
                std::uint64_t seed);

  // -- VM lifecycle ----------------------------------------------------------

  /// Lease one VM; billing starts immediately.
  VmHandle provision(Region region, VmSize size);

  /// End the lease; the VM-time charge is finalized.
  void release(VmId id);
  void release_all();

  /// Simulate an abrupt VM failure: all its flows abort, billing stops.
  void fail_vm(VmId id);

  [[nodiscard]] bool is_active(VmId id) const;
  [[nodiscard]] const VmHandle& vm(VmId id) const;
  [[nodiscard]] std::size_t active_vm_count() const;
  /// Total VMs ever provisioned (ids are dense in [0, vm_count())).
  [[nodiscard]] std::size_t vm_count() const { return vms_.size(); }

  /// Current CPU throughput factor of a VM (nominal 1.0; wanders with
  /// multi-tenant noise). What the CPU probe benchmark measures.
  double vm_cpu_factor(VmId id);

  // -- Networking --------------------------------------------------------------

  [[nodiscard]] Fabric& fabric() { return *fabric_; }
  [[nodiscard]] const Topology& topology() const { return fabric_->topology(); }
  [[nodiscard]] SimDuration rtt(Region a, Region b) const { return fabric_->rtt(a, b); }

  /// Start a bulk transfer between two leased VMs.
  FlowId transfer(VmId src, VmId dst, Bytes size, FlowOptions options,
                  Fabric::CompletionFn on_done);

  // -- Storage ---------------------------------------------------------------

  [[nodiscard]] BlobService& blob(Region region) { return *blobs_[region_index(region)]; }

  // -- Billing ---------------------------------------------------------------

  [[nodiscard]] const PricingModel& pricing() const { return pricing_; }

  /// Itemised charges accrued so far (active leases and live blobs accrued
  /// up to the current simulated time).
  CostReport cost_report();

  [[nodiscard]] sim::SimEngine& engine() { return engine_; }

 private:
  struct VmRecord {
    VmHandle handle;
    SimTime lease_start;
    bool active = false;
    LinkCapacityModel cpu_model;
  };

  sim::SimEngine& engine_;
  PricingModel pricing_;
  CostMeter meter_;
  Rng rng_;
  std::unique_ptr<Fabric> fabric_;
  std::vector<std::unique_ptr<BlobService>> blobs_;  // one per topology region
  std::vector<VmRecord> vms_;
  std::vector<Bytes> egress_billed_;
};

}  // namespace sage::cloud
