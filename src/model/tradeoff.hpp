// Cost/time tradeoff solvers.
//
// Applications state their efficiency requirement one of three ways and the
// solver returns the resource count (parallel sender nodes) to provision:
//
//   * a budget cap        -> the largest n whose predicted cost fits;
//   * a deadline          -> the cheapest n whose predicted time fits;
//   * a blend knob λ∈[0,1] -> minimize (1−λ)·normalized_time + λ·normalized
//     cost over n (λ=0: pure speed, λ=1: pure thrift);
//
// plus a knee finder: the n after which a further node buys less time than
// it adds cost (scaled by each axis' range) — the "maximum time reduction
// for minimum cost" point the evaluation singles out.
#pragma once

#include <vector>

#include "common/memo_ring.hpp"
#include "model/cost_model.hpp"

namespace sage::model {

/// How an application constrains a transfer.
struct Tradeoff {
  /// Hard ceiling on total transfer cost (Money::max() = unconstrained).
  Money budget = Money::max();
  /// Hard ceiling on transfer time (SimDuration::max() = unconstrained).
  SimDuration deadline = SimDuration::max();
  /// Blend preference used when neither cap binds (0 = fastest, 1 = cheapest).
  double lambda = 0.0;

  [[nodiscard]] static Tradeoff fastest() { return Tradeoff{}; }
  [[nodiscard]] static Tradeoff cheapest() {
    return Tradeoff{Money::max(), SimDuration::max(), 1.0};
  }
  [[nodiscard]] static Tradeoff within_budget(Money b) {
    return Tradeoff{b, SimDuration::max(), 0.0};
  }
  [[nodiscard]] static Tradeoff by_deadline(SimDuration d) {
    return Tradeoff{Money::max(), d, 1.0};
  }
};

struct TradeoffInputs {
  Bytes size;
  monitor::LinkEstimate link;
  cloud::VmSize vm_size = cloud::VmSize::kSmall;
  cloud::Region src = cloud::Region::kNorthEU;
  cloud::Region dst = cloud::Region::kNorthUS;
  /// Largest node count the deployment can offer.
  int max_nodes = 16;
};

class TradeoffSolver {
 public:
  explicit TradeoffSolver(const CostModel& model) : model_(model) {}

  /// Predicted estimates for n = 1..max_nodes (the efficiency frontier).
  [[nodiscard]] std::vector<TransferEstimate> frontier(const TradeoffInputs& in) const;

  /// The paper's Model.GetNodes(budget): largest n with cost <= budget.
  /// Returns 1 even when the budget cannot be met (the transfer must run;
  /// `fits_budget` on the result tells the caller it is over).
  [[nodiscard]] TransferEstimate nodes_for_budget(const TradeoffInputs& in,
                                                  Money budget) const;

  /// Knee of the frontier: the n with the best time-saved per cost-added
  /// ratio (both axes normalized to their frontier range).
  [[nodiscard]] TransferEstimate knee(const TradeoffInputs& in) const;

  /// Resolve a full Tradeoff: apply caps first, then the λ blend among the
  /// configurations that satisfy every cap.
  [[nodiscard]] TransferEstimate resolve(const TradeoffInputs& in,
                                         const Tradeoff& tradeoff) const;

 private:
  const CostModel& model_;
};

/// Epoch-keyed memo in front of TradeoffSolver::resolve().
///
/// resolve() is a pure function of its inputs; within one monitoring epoch
/// the link estimate for a (src, dst) pair cannot change, so
/// (epoch, src, dst, size, vm_size, max_nodes, tradeoff) is a sound memo
/// key — callers must derive `in.link` from the same epoch'd matrix they
/// pass the epoch of. A hit skips rebuilding the whole cost/time frontier
/// (max_nodes CostModel evaluations) and returns the exact estimate a
/// fresh call would produce. A `MemoRing`, like sched::PlanCache.
class ResolveCache {
 public:
  explicit ResolveCache(std::size_t capacity = 64) : memo_(capacity) {}

  /// Memoized solver.resolve(in, tradeoff) valid for monitoring epoch
  /// `epoch`. The returned reference stays valid until eviction.
  const TransferEstimate& resolve(const TradeoffSolver& solver, const TradeoffInputs& in,
                                  const Tradeoff& tradeoff, std::uint64_t epoch);

  void clear() { memo_.clear(); }
  [[nodiscard]] std::uint64_t hits() const { return memo_.hits(); }
  [[nodiscard]] std::uint64_t misses() const { return memo_.misses(); }
  [[nodiscard]] std::size_t size() const { return memo_.size(); }

 private:
  struct Key {
    std::uint64_t epoch = 0;
    cloud::Region src = cloud::Region::kNorthEU;
    cloud::Region dst = cloud::Region::kNorthEU;
    Bytes size;
    cloud::VmSize vm_size = cloud::VmSize::kSmall;
    int max_nodes = 0;
    Money budget;
    SimDuration deadline;
    double lambda = 0.0;

    [[nodiscard]] bool operator==(const Key&) const = default;
  };

  MemoRing<Key, TransferEstimate> memo_;
};

}  // namespace sage::model
