#include "model/tradeoff.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace sage::model {

std::vector<TransferEstimate> TradeoffSolver::frontier(const TradeoffInputs& in) const {
  SAGE_CHECK(in.max_nodes >= 1);
  std::vector<TransferEstimate> out;
  out.reserve(static_cast<std::size_t>(in.max_nodes));
  for (int n = 1; n <= in.max_nodes; ++n) {
    out.push_back(model_.estimate(in.size, in.link, n, in.vm_size, in.src, in.dst));
  }
  return out;
}

TransferEstimate TradeoffSolver::nodes_for_budget(const TradeoffInputs& in,
                                                  Money budget) const {
  const auto options = frontier(in);
  // Walk from the largest n down: the first configuration under budget is
  // the fastest affordable one (time decreases monotonically with n).
  for (auto it = options.rbegin(); it != options.rend(); ++it) {
    if (it->total_cost() <= budget) return *it;
  }
  return options.front();  // over budget even at n=1; run minimally
}

TransferEstimate TradeoffSolver::knee(const TradeoffInputs& in) const {
  const auto options = frontier(in);
  if (options.size() == 1) return options.front();
  // Normalize both axes to the frontier's range, then pick the point
  // closest to the utopia corner (min time, min cost).
  double t_lo = options.front().time.to_seconds();
  double t_hi = t_lo;
  double c_lo = options.front().total_cost().to_usd();
  double c_hi = c_lo;
  for (const auto& e : options) {
    t_lo = std::min(t_lo, e.time.to_seconds());
    t_hi = std::max(t_hi, e.time.to_seconds());
    c_lo = std::min(c_lo, e.total_cost().to_usd());
    c_hi = std::max(c_hi, e.total_cost().to_usd());
  }
  const double t_span = std::max(t_hi - t_lo, 1e-12);
  const double c_span = std::max(c_hi - c_lo, 1e-12);
  const TransferEstimate* best = &options.front();
  double best_d = std::numeric_limits<double>::infinity();
  for (const auto& e : options) {
    const double t = (e.time.to_seconds() - t_lo) / t_span;
    const double c = (e.total_cost().to_usd() - c_lo) / c_span;
    const double d = std::hypot(t, c);
    if (d < best_d) {
      best_d = d;
      best = &e;
    }
  }
  return *best;
}

TransferEstimate TradeoffSolver::resolve(const TradeoffInputs& in,
                                         const Tradeoff& tradeoff) const {
  SAGE_CHECK(tradeoff.lambda >= 0.0 && tradeoff.lambda <= 1.0);
  const auto options = frontier(in);

  std::vector<const TransferEstimate*> feasible;
  for (const auto& e : options) {
    if (e.total_cost() <= tradeoff.budget && e.time <= tradeoff.deadline) {
      feasible.push_back(&e);
    }
  }
  if (feasible.empty()) {
    // No configuration satisfies every cap. Degrade predictably: honour the
    // budget first (money is the harder constraint to exceed on a public
    // cloud), else run minimally.
    if (tradeoff.budget < Money::max()) return nodes_for_budget(in, tradeoff.budget);
    return options.front();
  }

  double t_lo = feasible.front()->time.to_seconds();
  double t_hi = t_lo;
  double c_lo = feasible.front()->total_cost().to_usd();
  double c_hi = c_lo;
  for (const auto* e : feasible) {
    t_lo = std::min(t_lo, e->time.to_seconds());
    t_hi = std::max(t_hi, e->time.to_seconds());
    c_lo = std::min(c_lo, e->total_cost().to_usd());
    c_hi = std::max(c_hi, e->total_cost().to_usd());
  }
  const double t_span = std::max(t_hi - t_lo, 1e-12);
  const double c_span = std::max(c_hi - c_lo, 1e-12);

  const TransferEstimate* best = feasible.front();
  double best_score = std::numeric_limits<double>::infinity();
  for (const auto* e : feasible) {
    const double t = (e->time.to_seconds() - t_lo) / t_span;
    const double c = (e->total_cost().to_usd() - c_lo) / c_span;
    const double score = (1.0 - tradeoff.lambda) * t + tradeoff.lambda * c;
    if (score < best_score) {
      best_score = score;
      best = e;
    }
  }
  return *best;
}

const TransferEstimate& ResolveCache::resolve(const TradeoffSolver& solver,
                                              const TradeoffInputs& in,
                                              const Tradeoff& tradeoff,
                                              std::uint64_t epoch) {
  const Key key{epoch,          in.src,           in.dst,          in.size, in.vm_size,
                in.max_nodes,   tradeoff.budget,  tradeoff.deadline,
                tradeoff.lambda};
  return memo_.get(key, [&] { return solver.resolve(in, tradeoff); });
}

}  // namespace sage::model
