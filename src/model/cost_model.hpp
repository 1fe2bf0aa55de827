// The cost/time-aware transfer performance model — SAGE's analytical core.
//
// Given a monitored link estimate (mean per-flow throughput µ and
// variability σ), the model predicts for any candidate resource count n:
//
//   Transfer time (Eq. T):   Tt(n) = Size / thr_eff · 1 / (1 + (n−1)·gain)
//
//     where `gain` ∈ (0,1) is the empirically calibrated marginal benefit
//     of each additional parallel node (network interference and forwarding
//     overhead keep it below 1 — perfect scaling), and thr_eff discounts
//     the mean by a risk multiple of the observed variability:
//     thr_eff = max(ε, µ − risk·σ).
//
//   Monetary cost (Eq. C):   C(n) = n · Tt(n) · price_h(VM) · Intr
//                                   + egress(src) · Size
//
//     the first term bills the fraction (Intr = intrusiveness) of each
//     leased VM's time the transfer is allowed to consume — split for
//     reporting into a CPU share and a network-bandwidth share of the VM
//     price — and the second term is the provider's outbound-data charge
//     (inbound is free).
//
// Because Tt(n) falls roughly like 1/n while the VM term grows like
// n·Tt(n) = n/(1+(n−1)·gain)·Tt(1), cost rises slowly while time drops
// fast, producing the characteristic cost/time knee the tradeoff solvers
// in tradeoff.hpp search for.
#pragma once

#include "cloud/pricing.hpp"
#include "cloud/region.hpp"
#include "cloud/vm.hpp"
#include "common/units.hpp"
#include "monitor/monitoring.hpp"

namespace sage::model {

struct ModelParams {
  /// Marginal benefit of each extra parallel node in (0, 1].
  double parallel_gain = 0.65;
  /// Fraction of VM resources the transfer may consume (1.0 = dedicated).
  double intrusiveness = 1.0;
  /// Risk aversion: throughput is discounted by `risk · σ` (0 = use mean).
  double risk = 0.5;
  /// Reporting split of the VM price between CPU and network bandwidth.
  double vm_cpu_share = 0.5;
};

/// A fully priced prediction for one candidate transfer configuration.
struct TransferEstimate {
  int nodes = 1;
  SimDuration time;
  Money vm_cpu_cost;
  Money vm_bandwidth_cost;
  Money egress_cost;

  [[nodiscard]] Money vm_cost() const { return vm_cpu_cost + vm_bandwidth_cost; }
  [[nodiscard]] Money total_cost() const { return vm_cost() + egress_cost; }
};

class CostModel {
 public:
  CostModel(cloud::PricingModel pricing, ModelParams params);

  /// Parallel speedup factor 1 + (n−1)·gain.
  [[nodiscard]] double speedup(int nodes) const;

  /// Risk-discounted effective throughput from a link estimate.
  [[nodiscard]] ByteRate effective_throughput(const monitor::LinkEstimate& link) const;

  /// Predicted transfer time for `size` over a link with the given per-flow
  /// throughput, using `nodes` parallel senders.
  [[nodiscard]] SimDuration predict_time(Bytes size, ByteRate per_flow, int nodes) const;

  /// Full cost/time estimate for one configuration.
  [[nodiscard]] TransferEstimate estimate(Bytes size, const monitor::LinkEstimate& link,
                                          int nodes, cloud::VmSize vm_size,
                                          cloud::Region src, cloud::Region dst) const;

 private:
  cloud::PricingModel pricing_;
  ModelParams params_;
};

}  // namespace sage::model
