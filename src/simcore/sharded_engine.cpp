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

ShardedSimEngine::ShardedSimEngine(Options opts)
    : shards_(std::max<std::size_t>(opts.shards, 1)), lookahead_(opts.lookahead) {
  // S=1 needs no coordination at all; a degenerate horizon (a zero-latency
  // cross-shard edge) admits no parallel window wider than a point, so both
  // collapse to one pass-through lane instead of deadlocking.
  const bool collapse = shards_ == 1 || lookahead_ <= SimDuration::zero();
  const std::size_t lanes = collapse ? 1 : shards_;
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) lanes_.push_back(std::make_unique<SimEngine>());
  outbox_.resize(lanes * lanes);
  outbox_seq_.assign(lanes, 0);
  fired_by_lane_.assign(lanes, 0);
  if (opts.parallel && lanes > 1) {
    std::size_t hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    std::size_t width = opts.max_workers == 0 ? hw : opts.max_workers;
    pool_ = std::make_unique<ThreadPool>(std::min(lanes, width));
  }
}

ShardedSimEngine::~ShardedSimEngine() = default;

SimEngine& ShardedSimEngine::shard(std::size_t s) {
  SAGE_CHECK_MSG(s < shards_, "shard index out of range");
  return collapsed() ? *lanes_.front() : *lanes_[s];
}

SimTime ShardedSimEngine::now() const {
  return collapsed() ? lanes_.front()->now() : now_;
}

void ShardedSimEngine::post(std::size_t src, std::size_t dst, SimDuration delay,
                            Callback fn) {
  SAGE_CHECK_MSG(src < shards_ && dst < shards_, "shard index out of range");
  SAGE_CHECK_MSG(!delay.is_negative(), "negative cross-shard delay");
  SAGE_CHECK(fn != nullptr);
  if (collapsed()) {
    // One merged lane: a cross-shard post is an ordinary local event.
    lanes_.front()->schedule_after(delay, std::move(fn));
    return;
  }
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

void ShardedSimEngine::run_lanes(SimTime horizon) {
  const std::size_t lanes = lanes_.size();
  // SimTime::from_micros(max) is the drain sentinel: run the lane dry and
  // leave its clock at the last fired event instead of jumping to infinity.
  const bool drain = horizon == SimTime::from_micros(std::numeric_limits<std::int64_t>::max());
  const auto advance = [this, drain, horizon](std::size_t lane) {
    fired_by_lane_[lane] +=
        drain ? lanes_[lane]->run() : lanes_[lane]->run_until(horizon);
  };
  if (pool_ != nullptr) {
    const std::size_t width = pool_->size();
    pool_->run_on_all_workers([&advance, lanes, width](std::size_t worker) {
      // Lane-striped ownership: worker w drives lanes w, w+width, ... Each
      // lane has exactly one driver per window and fired_by_lane_ slots are
      // lane-indexed, so results and counters are pool-width independent.
      for (std::size_t lane = worker; lane < lanes; lane += width) advance(lane);
    });
  } else {
    for (std::size_t lane = 0; lane < lanes; ++lane) advance(lane);
  }
  ++windows_;
  std::uint64_t fired = 0;
  for (std::uint64_t f : fired_by_lane_) fired += f;
  window_fired_ = fired;
}

std::uint64_t ShardedSimEngine::run_until(SimTime t) {
  SAGE_CHECK(t >= now());
  if (collapsed()) return lanes_.front()->run_until(t);
  const std::uint64_t before = window_fired_;
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
  return window_fired_ - before;
}

std::uint64_t ShardedSimEngine::run() {
  if (collapsed()) return lanes_.front()->run();
  const std::uint64_t before = window_fired_;
  if (lookahead_ == SimDuration::max()) {
    // No declared cross-shard edge: post() can never satisfy the horizon
    // CHECK, so lanes are fully independent and drain in one pass.
    drain_mailboxes();
    run_lanes(SimTime::from_micros(std::numeric_limits<std::int64_t>::max()));
    for (const auto& lane : lanes_) now_ = std::max(now_, lane->now());
    return window_fired_ - before;
  }
  for (;;) {
    drain_mailboxes();
    SimTime earliest;
    if (!earliest_event(&earliest)) break;
    const SimTime start = std::max(now_, earliest);
    const SimTime end = saturating_add(start, lookahead_);
    run_lanes(end);
    now_ = end;
  }
  return window_fired_ - before;
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

std::size_t ShardedSimEngine::live_events() const {
  std::size_t n = 0;
  for (const auto& lane : lanes_) n += lane->live_events();
  for (const auto& box : outbox_) n += box.size();
  return n;
}

}  // namespace sage::sim
