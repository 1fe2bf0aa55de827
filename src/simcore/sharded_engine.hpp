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
// worker count (lanes are data-independent within a window), and S=1
// collapses to a single pass-through lane that is bit-for-bit the plain
// engine. A degenerate horizon (lookahead <= 0 with S > 1, e.g. a topology
// with a zero-latency cross-shard edge) also collapses to one sequential
// lane instead of deadlocking on empty windows.
//
// Contract for lane callbacks: while a window is running, a callback on
// shard s may schedule on its own lane (shard(s).schedule_*) or cross-shard
// via post(s, dst, delay, fn) with delay >= lookahead(); it must not touch
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
    /// Number of shards (clamped to >= 1).
    std::size_t shards = 1;
    /// Conservative lookahead horizon (minimum cross-shard one-way latency;
    /// see cloud::plan_shards). <= 0 with shards > 1 means degenerate: the
    /// engine falls back to one sequential lane.
    SimDuration lookahead = SimDuration::zero();
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
  ShardedSimEngine(std::size_t shards, SimDuration lookahead)
      : ShardedSimEngine(Options{shards, lookahead, true, 0}) {}
  ~ShardedSimEngine();
  ShardedSimEngine(const ShardedSimEngine&) = delete;
  ShardedSimEngine& operator=(const ShardedSimEngine&) = delete;

  /// Shards requested (after clamping to >= 1).
  [[nodiscard]] std::size_t shard_count() const { return shards_; }
  /// Physical event lanes: shard_count(), or 1 when collapsed (S=1 or a
  /// degenerate lookahead).
  [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }
  [[nodiscard]] bool collapsed() const { return lanes_.size() == 1; }
  [[nodiscard]] SimDuration lookahead() const { return lookahead_; }

  /// The lane owning shard `s`. When collapsed, every shard maps to lane 0.
  [[nodiscard]] SimEngine& shard(std::size_t s);

  /// Completed horizon: every lane has processed all events <= now().
  [[nodiscard]] SimTime now() const;

  /// Cross-shard schedule: run `fn` on shard `dst` at src-lane-now + delay.
  /// Must be called from shard `src`'s execution context (its lane callback,
  /// or any thread while the coordinator is quiescent). With multiple lanes,
  /// src != dst requires delay >= lookahead() — the conservative horizon is
  /// exactly the promise that no shorter cross-shard delay exists.
  /// src == dst schedules directly on the lane.
  void post(std::size_t src, std::size_t dst, SimDuration delay, Callback fn);

  /// Run until every lane drains and every mailbox is empty.
  /// Returns events fired.
  std::uint64_t run();

  /// Run all events with timestamp <= t on every lane (advancing each lane's
  /// clock to t), in lock-step windows of length <= lookahead().
  std::uint64_t run_until(SimTime t);

  // Aggregates over all lanes (read when quiescent).
  [[nodiscard]] std::uint64_t events_fired() const;
  [[nodiscard]] std::uint64_t events_scheduled() const;
  [[nodiscard]] std::uint64_t events_cancelled() const;
  /// Pending events summed over lanes plus undelivered mailbox posts —
  /// zero means the whole sharded world is idle (scenario drivers use this
  /// for quantized predicate waits).
  [[nodiscard]] std::size_t live_events() const;
  /// Cross-lane mailbox records delivered at barriers so far.
  [[nodiscard]] std::uint64_t cross_posts() const { return cross_posts_; }
  /// Lock-step windows executed so far (0 when collapsed).
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
  /// Advance every lane to `horizon` (worker stripes, or shard order
  /// inline). Counts fired events into fired_by_lane_.
  void run_lanes(SimTime horizon);
  /// Advance lane `lane` to horizon_.
  void advance(std::size_t lane);
  /// Advance worker `w`'s lanes (w, w + width, ...), keeping what they throw
  /// in stripe_error_[w].
  void run_stripe(std::size_t w);
  /// Helper thread body: one stripe per window until the destructor stops it.
  void helper_loop(std::size_t w);

  std::size_t shards_ = 1;
  SimDuration lookahead_ = SimDuration::zero();
  SimTime now_ = SimTime::epoch();
  std::vector<std::unique_ptr<SimEngine>> lanes_;
  // outbox_[src * lane_count + dst]; only shard src's lane thread appends
  // during a window, so rows never race.
  std::vector<std::vector<Post>> outbox_;
  std::vector<std::uint64_t> outbox_seq_;    // per src shard
  std::vector<std::uint64_t> fired_by_lane_;  // window scratch, lane-indexed
  std::vector<Post> merge_scratch_;
  std::uint64_t window_fired_ = 0;  // total fired through run_lanes
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
