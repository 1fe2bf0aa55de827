// Region-sharded parallel simulation with conservative lookahead.
//
// The plain SimEngine is deliberately single-threaded; this coordinator runs
// S of them — one event lane per shard — in lock-step windows bounded by the
// minimum cross-shard link latency (the conservative lookahead horizon, the
// classic null-message insight): an event posted from shard A to shard B
// cannot arrive earlier than the A→B one-way latency, so every lane may run
// `lookahead` ahead of its peers without ever missing a cross-shard arrival.
//
// Execution alternates two strictly separated modes:
//   * inside a window, lanes run concurrently and interact ONLY by appending
//     to their own per-(src,dst) outboxes. The calling thread and the
//     engine's helper threads meet at one std::barrier to start the window,
//     each drives its stripe of lanes (worker w owns lanes w, w+width, ...),
//     and all meet again to finish it;
//   * between windows, the calling thread alone drains every outbox in
//     deterministic order — records sorted by (arrival time, src shard,
//     per-src sequence) — into the destination lanes.
// A given shard count therefore always produces identical results at any
// worker count (lanes are data-independent within a window). Every shard
// count runs this one window loop: at width 1 the caller's stripe is every
// lane, and one lane with the plan's unbounded lookahead takes one window per
// run_until call and fires the same events, in the same order, as a plain
// SimEngine. The lookahead must be positive — a zero horizon admits no
// window wider than a point — so cloud::plan_shards never cuts a
// zero-latency edge: it returns a one-shard plan instead.
//
// Contract for lane callbacks: while a window is running, a callback on
// shard s may schedule on its own lane (shard(s).schedule_*) or cross-shard
// via post(s, dst, delay, fn) with delay >= the lookahead; it must not touch
// any other lane directly. Between runs (setup, teardown) any thread may do
// anything — the coordinator is quiescent.
#pragma once

#include <barrier>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "simcore/engine.hpp"

namespace sage::sim {

class ShardedSimEngine {
 public:
  using Callback = SimEngine::Callback;

  struct Options {
    /// Number of shards, one event lane each (clamped to >= 1).
    std::size_t shards = 1;
    /// Conservative lookahead horizon (minimum cross-shard one-way latency;
    /// see cloud::plan_shards); must be positive. SimDuration::max() when no
    /// edge crosses shards.
    SimDuration lookahead = SimDuration::max();
    /// Drive lanes on several threads. false runs the same lanes in shard
    /// order on the calling thread — identical results by contract, which
    /// the differential tests assert.
    bool parallel = true;
    /// Threads that drive lanes, the calling thread included; 0 means
    /// hardware concurrency. Never wider than the lane count; a width of 1
    /// runs lanes inline as parallel = false does.
    std::size_t max_workers = 0;
  };

  explicit ShardedSimEngine(Options opts);
  ~ShardedSimEngine();
  ShardedSimEngine(const ShardedSimEngine&) = delete;
  ShardedSimEngine& operator=(const ShardedSimEngine&) = delete;

  /// Event lanes, one per shard.
  [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }

  /// The lane owning shard `s`.
  [[nodiscard]] SimEngine& shard(std::size_t s);

  /// Completed horizon: every lane has processed all events <= now().
  [[nodiscard]] SimTime now() const { return now_; }

  /// Cross-shard schedule: run `fn` on shard `dst` at src-lane-now + delay.
  /// Must be called from shard `src`'s execution context (its lane callback,
  /// or any thread while the coordinator is quiescent). src != dst requires
  /// delay >= the lookahead — the conservative horizon is exactly the
  /// promise that no shorter cross-shard delay exists. src == dst schedules
  /// directly on the lane.
  void post(std::size_t src, std::size_t dst, SimDuration delay, Callback fn);

  /// Run all events with timestamp <= t on every lane (advancing each lane's
  /// clock to t), in lock-step windows of length <= the lookahead.
  void run_until(SimTime t);

  // Aggregates over all lanes (read when quiescent).
  [[nodiscard]] std::uint64_t events_fired() const;
  [[nodiscard]] std::uint64_t events_scheduled() const;
  [[nodiscard]] std::uint64_t events_cancelled() const;
  /// Cross-lane mailbox records delivered at barriers so far.
  [[nodiscard]] std::uint64_t cross_posts() const { return cross_posts_; }
  /// Lock-step windows executed so far.
  [[nodiscard]] std::uint64_t windows_run() const { return windows_; }

 private:
  struct Post {
    SimTime at;
    std::uint64_t seq;  // per-src-shard, monotone: ties break (at, src, seq)
    std::uint32_t src;
    Callback fn;
  };

  /// Move every outbox record into its destination lane, sorted by
  /// (at, src, seq). Single-threaded; runs only at window barriers.
  void drain_mailboxes();
  /// Earliest live event over all lanes; false when every lane is empty.
  bool earliest_event(SimTime* t) const;
  /// Advance every lane to `horizon`: the caller drives stripe 0, and helper
  /// threads, when there are any, drive the others.
  void run_lanes(SimTime horizon);
  /// Advance worker `w`'s lanes (w, w + width, ...) to horizon_, keeping
  /// what they throw in stripe_error_[w].
  void run_stripe(std::size_t w);
  /// Helper thread body: one stripe per window until the destructor stops it.
  void helper_loop(std::size_t w);

  SimDuration lookahead_;
  SimTime now_ = SimTime::epoch();
  std::vector<std::unique_ptr<SimEngine>> lanes_;
  // outbox_[src * lane_count + dst]; only shard src's lane thread appends
  // during a window, so rows never race.
  std::vector<std::vector<Post>> outbox_;
  std::vector<std::uint64_t> outbox_seq_;  // per src shard
  std::vector<Post> merge_scratch_;
  std::uint64_t cross_posts_ = 0;
  std::uint64_t windows_ = 0;
  // The current window's end. In parallel windows the caller writes
  // horizon_ and stopping_ before the start phase, and helpers read them
  // after it, so the barrier orders every access.
  SimTime horizon_ = SimTime::epoch();
  bool stopping_ = false;
  std::optional<std::barrier<>> barrier_;        // width = helpers_ + caller
  std::vector<std::exception_ptr> stripe_error_;  // worker-indexed
  // Workers 1..width-1; declared last, after everything their lanes touch.
  std::vector<std::thread> helpers_;
};

}  // namespace sage::sim
