#include "simcore/sharded_engine.hpp"

#include <algorithm>
#include <limits>
#include <thread>
#include <tuple>
#include <utility>

#include "common/check.hpp"

namespace sage::sim {
namespace {

/// start + lookahead without signed overflow (lookahead may be
/// SimDuration::max() when no declared edge crosses shards).
SimTime saturating_add(SimTime start, SimDuration lookahead) {
  const std::int64_t s = start.count_micros();
  const std::int64_t la = lookahead.count_micros();
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  if (la > kMax - s) return SimTime::from_micros(kMax);
  return start + lookahead;
}

}  // namespace

ShardedSimEngine::ShardedSimEngine(Options opts) : lookahead_(opts.lookahead) {
  SAGE_CHECK_MSG(lookahead_ > SimDuration::zero(), "lookahead must be positive");
  const std::size_t lanes = std::max<std::size_t>(opts.shards, 1);
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) lanes_.push_back(std::make_unique<SimEngine>());
  outbox_.resize(lanes * lanes);
  outbox_seq_.assign(lanes, 0);
  // The calling thread is worker 0; width 1 runs lanes inline.
  const std::size_t width = std::min<std::size_t>(
      opts.parallel ? lanes : 1,
      opts.max_workers != 0 ? opts.max_workers
                            : std::max(std::thread::hardware_concurrency(), 1u));
  stripe_error_.resize(width);
  if (width == 1) return;
  barrier_.emplace(static_cast<std::ptrdiff_t>(width));
  helpers_.reserve(width - 1);
  for (std::size_t w = 1; w < width; ++w) helpers_.emplace_back([this, w] { helper_loop(w); });
}

ShardedSimEngine::~ShardedSimEngine() {
  if (helpers_.empty()) return;
  // One more start phase, in which every helper sees the flag and returns.
  stopping_ = true;
  barrier_->arrive_and_wait();
  for (std::thread& t : helpers_) t.join();
}

void ShardedSimEngine::helper_loop(std::size_t w) {
  for (;;) {
    barrier_->arrive_and_wait();  // start
    if (stopping_) return;
    run_stripe(w);
    barrier_->arrive_and_wait();  // finish
  }
}

SimEngine& ShardedSimEngine::shard(std::size_t s) {
  SAGE_CHECK_MSG(s < lanes_.size(), "shard index out of range");
  return *lanes_[s];
}

void ShardedSimEngine::post(std::size_t src, std::size_t dst, SimDuration delay,
                            Callback fn) {
  SAGE_CHECK_MSG(src < lanes_.size() && dst < lanes_.size(), "shard index out of range");
  SAGE_CHECK_MSG(!delay.is_negative(), "negative cross-shard delay");
  SAGE_CHECK(fn != nullptr);
  SimEngine& lane = *lanes_[src];
  if (src == dst) {
    lane.schedule_after(delay, std::move(fn));
    return;
  }
  SAGE_CHECK_MSG(delay >= lookahead_,
                 "cross-shard post below the conservative lookahead horizon");
  // Only shard src's lane thread appends to row src during a window, so the
  // outboxes need no locks; the barrier drains them single-threaded.
  outbox_[src * lanes_.size() + dst].push_back(
      Post{lane.now() + delay, outbox_seq_[src]++, static_cast<std::uint32_t>(src),
           std::move(fn)});
}

void ShardedSimEngine::drain_mailboxes() {
  const std::size_t lanes = lanes_.size();
  for (std::size_t dst = 0; dst < lanes; ++dst) {
    merge_scratch_.clear();
    for (std::size_t src = 0; src < lanes; ++src) {
      std::vector<Post>& box = outbox_[src * lanes + dst];
      for (Post& p : box) merge_scratch_.push_back(std::move(p));
      box.clear();
    }
    if (merge_scratch_.empty()) continue;
    // (at, src, seq) is a strict total order — per-src seqs are unique — so
    // equal-time cross-shard arrivals land in the destination lane in an
    // order independent of drain iteration and of worker interleaving.
    std::sort(merge_scratch_.begin(), merge_scratch_.end(),
              [](const Post& a, const Post& b) {
                return std::tie(a.at, a.src, a.seq) < std::tie(b.at, b.src, b.seq);
              });
    cross_posts_ += merge_scratch_.size();
    SimEngine& lane = *lanes_[dst];
    for (Post& p : merge_scratch_) {
      // Conservative invariant: the lookahead bound keeps every arrival at or
      // past the receiving lane's clock (schedule_at CHECKs it).
      lane.schedule_at(p.at, std::move(p.fn));
    }
    merge_scratch_.clear();
  }
}

bool ShardedSimEngine::earliest_event(SimTime* t) const {
  bool any = false;
  SimTime best = SimTime::epoch();
  for (const auto& lane : lanes_) {
    SimTime lt;
    if (!lane->peek_next_time(&lt)) continue;
    if (!any || lt < best) best = lt;
    any = true;
  }
  if (any && t != nullptr) *t = best;
  return any;
}

void ShardedSimEngine::run_stripe(std::size_t w) {
  // Each lane has exactly one driver per window, so results are width
  // independent.
  const std::size_t width = helpers_.size() + 1;
  try {
    for (std::size_t lane = w; lane < lanes_.size(); lane += width) {
      lanes_[lane]->run_until(horizon_);
    }
  } catch (...) {
    stripe_error_[w] = std::current_exception();
  }
}

void ShardedSimEngine::run_lanes(SimTime horizon) {
  horizon_ = horizon;
  if (!helpers_.empty()) barrier_->arrive_and_wait();  // start: helpers read horizon_
  run_stripe(0);
  if (!helpers_.empty()) barrier_->arrive_and_wait();  // finish: every helper is parked
  std::exception_ptr first;
  for (std::exception_ptr& err : stripe_error_) {
    if (!first) first = err;
    err = nullptr;
  }
  if (first) std::rethrow_exception(first);
  ++windows_;
}

void ShardedSimEngine::run_until(SimTime t) {
  SAGE_CHECK(t >= now_);
  for (;;) {
    // Drain first so records posted during the previous window join the
    // earliest-event scan below (they may fall inside [now, t]).
    drain_mailboxes();
    SimTime earliest;
    if (!earliest_event(&earliest) || earliest > t) break;
    const SimTime start = std::max(now_, earliest);
    const SimTime end = std::min(saturating_add(start, lookahead_), t);
    run_lanes(end);
    now_ = end;
    // Termination at end == t: a window at t only fires events at exactly t,
    // and any cross-shard records they post arrive at >= t + lookahead > t,
    // so the next iteration's scan cannot find new work <= t forever.
  }
  for (auto& lane : lanes_) lane->run_until(t);  // advance clocks; fires nothing
  now_ = t;
}

std::uint64_t ShardedSimEngine::events_fired() const {
  std::uint64_t n = 0;
  for (const auto& lane : lanes_) n += lane->events_fired();
  return n;
}

std::uint64_t ShardedSimEngine::events_scheduled() const {
  std::uint64_t n = 0;
  for (const auto& lane : lanes_) n += lane->events_scheduled();
  return n;
}

std::uint64_t ShardedSimEngine::events_cancelled() const {
  std::uint64_t n = 0;
  for (const auto& lane : lanes_) n += lane->events_cancelled();
  return n;
}

}  // namespace sage::sim
