// Discrete-event simulation kernel.
//
// The whole SAGE reproduction executes on virtual time: the cloud fabric,
// monitoring agents, transfer sessions and streaming operators all schedule
// callbacks on one SimEngine. The engine is deliberately single-threaded —
// determinism is a hard requirement for regenerating the paper tables — and
// events with equal timestamps fire in scheduling order (FIFO tie-break via
// a monotone sequence number).
//
// Scheduling is allocation-free beyond the callback itself: event state
// lives in a slab of reusable slots, and an EventHandle names a
// (slot, generation) pair; releasing a slot bumps its generation so stale
// handles are inert. The queue is an indexed 4-ary min-heap of
// (time, sequence, slot) entries, with every live slot's heap index kept in
// a dense side array. It holds only live events: cancel() removes its entry
// at once, and reschedule() moves a pending event in place — the fabric
// moves a component's completion event whenever a settle moves its earliest
// finish time, so that move is one sift rather than a removal plus an
// insertion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/callback.hpp"
#include "common/units.hpp"

namespace sage::obs {
struct ObsConfig;
class Observability;
}  // namespace sage::obs

namespace sage::sim {

class SimEngine;

/// Handle used to cancel or reschedule a scheduled event. Default-constructed
/// handles are inert; cancelling an already-fired event is a no-op. A handle
/// names a (slot, generation) pair inside its engine's slab, so it must not
/// be used after the engine is destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel();
  [[nodiscard]] bool pending() const;

 private:
  friend class SimEngine;
  EventHandle(SimEngine* engine, std::uint32_t slot, std::uint64_t gen)
      : engine_(engine), slot_(slot), gen_(gen) {}

  SimEngine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
};

class SimEngine {
 public:
  // Small-buffer-optimized and move-only (common/callback.hpp): the typical
  // fabric/stream lambda fits the 48-byte inline buffer, so scheduling makes
  // no heap allocation, and callbacks may own move-only state.
  using Callback = InlineCallback;

  SimEngine();
  ~SimEngine();
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now()).
  EventHandle schedule_at(SimTime t, Callback fn);

  /// Schedule `fn` after a non-negative delay.
  EventHandle schedule_after(SimDuration delay, Callback fn);

  /// Move the pending event `h` names to absolute time `t` (must be >= now()),
  /// keeping its callback and handle. It takes a fresh sequence number, so it
  /// fires exactly where cancel() plus schedule_at(t) would have put it, and
  /// it counts as one cancel plus one schedule. Returns false and changes
  /// nothing when `h` is not pending on this engine.
  bool reschedule(const EventHandle& h, SimTime t);

  /// Run until the event queue drains. Returns the number of events fired.
  std::uint64_t run();

  /// Run all events with timestamp <= t, then advance the clock to t.
  std::uint64_t run_until(SimTime t);

  /// Fire exactly one event if any is pending. Returns false on empty queue.
  bool step();

  /// Timestamp of the earliest pending event. Returns false when none is
  /// pending. The sharded coordinator uses this to pick each lock-step
  /// window start.
  bool peek_next_time(SimTime* t) const;

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }
  /// Lifetime totals: every schedule_* call, and every EventHandle::cancel
  /// that actually killed a live event; a reschedule counts once in each.
  /// Always maintained (integer increments; cheaper than a branch) so the
  /// event-accounting invariant
  ///   events_scheduled() == events_fired() + events_cancelled() + live_events()
  /// holds whether or not observability is enabled.
  [[nodiscard]] std::uint64_t events_scheduled() const { return scheduled_; }
  [[nodiscard]] std::uint64_t events_cancelled() const { return cancelled_; }
  /// Scheduled events that have neither fired nor been cancelled.
  [[nodiscard]] std::size_t live_events() const { return heap_.size(); }

  /// Attach a metrics registry to this engine. Must be called before
  /// constructing the components that should report into it — they cache
  /// registry cell pointers when built.
  void enable_obs(const obs::ObsConfig& config);
  /// enable_obs() iff the SAGE_OBS environment variable is a non-empty value
  /// other than "0". Returns whether observability is now enabled.
  bool enable_obs_from_env();
  /// The engine-owned registry, or nullptr when observability is off. This is
  /// the single switch every instrumented layer keys off.
  [[nodiscard]] obs::Observability* obs() const { return obs_.get(); }
  /// Publish the engine's own counters (sim.events.*, sim.time_seconds) into
  /// the registry. Delta-based, so repeated calls never double-count.
  void publish_obs_metrics();

 private:
  friend class EventHandle;

  // A slot is live while its generation is odd (allocation bumps even->odd,
  // release bumps odd->even). The strictly increasing generation makes a
  // stale EventHandle detect its own staleness with one compare, even after
  // the slot is reused.
  struct Slot {
    std::uint64_t gen = 0;
    Callback fn;
  };
  // Heap order is (at, seq): seq is unique, so the order is total and ties
  // at one timestamp fire in scheduling order.
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool before(const Entry& a, const Entry& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }

  bool fire_next();
  [[nodiscard]] bool live(std::uint32_t slot, std::uint64_t gen) const {
    return slots_[slot].gen == gen;
  }
  void release_slot(std::uint32_t slot);
  // Cancellation path only: counts the cancel, then releases. fire_next()
  // calls release_slot() directly so fired events are never counted as
  // cancelled.
  void cancel_slot(std::uint32_t slot);
  // Indexed-heap primitives. The sifts finish with place(), which brings
  // heap_pos_ in step with heap_ for every entry they moved.
  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    heap_pos_[e.slot] = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  // Index of the smallest child in the group that starts at `first`.
  std::size_t min_child(std::size_t first) const;
  // Removes the root. The hole walks down to a leaf along smallest children
  // and the last entry refills it from there: it usually belongs near the
  // bottom, so this skips one comparison per level against it.
  void pop_root();
  void remove_at(std::size_t i);

  SimTime now_ = SimTime::epoch();
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  // heap_pos_[slot]: index of a live slot's entry in heap_ (stale otherwise).
  std::vector<std::uint32_t> heap_pos_;
  std::vector<std::uint32_t> free_slots_;
  std::unique_ptr<obs::Observability> obs_;
  // Last values published into the registry; publish_obs_metrics() adds only
  // the delta since the previous call.
  std::uint64_t pub_scheduled_ = 0;
  std::uint64_t pub_fired_ = 0;
  std::uint64_t pub_cancelled_ = 0;
};

/// Repeats a callback at a fixed interval until stopped. The first firing is
/// one interval after start (matching a monitoring agent that needs a warmup
/// period before its first sample).
class PeriodicTask {
 public:
  PeriodicTask(SimEngine& engine, SimDuration interval, SimEngine::Callback fn);
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] SimDuration interval() const { return interval_; }

 private:
  void arm();

  SimEngine& engine_;
  SimDuration interval_;
  SimEngine::Callback fn_;
  EventHandle next_;
  bool running_ = false;
};

}  // namespace sage::sim
