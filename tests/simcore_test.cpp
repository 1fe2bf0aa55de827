// Tests for the discrete-event simulation kernel.
#include "simcore/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/callback.hpp"
#include "common/check.hpp"

namespace sage::sim {
namespace {

// -- InlineCallback (the SimEngine::Callback type) ---------------------------

TEST(InlineCallbackTest, DefaultIsEmptyAndComparesToNullptr) {
  InlineCallback cb;
  EXPECT_FALSE(static_cast<bool>(cb));
  EXPECT_TRUE(cb == nullptr);
  EXPECT_FALSE(cb != nullptr);
  EXPECT_FALSE(cb.is_inline());
}

TEST(InlineCallbackTest, SmallCapturesStayInline) {
  int hits = 0;
  InlineCallback cb([&hits] { ++hits; });
  EXPECT_TRUE(cb.is_inline());
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallbackTest, OversizedCapturesSpillToHeapAndStillRun) {
  std::array<long, 16> big{};  // 128 bytes of capture > kInlineSize
  big[7] = 42;
  long seen = 0;
  InlineCallback cb([big, &seen] { seen = big[7]; });
  static_assert(sizeof(big) > InlineCallback::kInlineSize);
  EXPECT_FALSE(cb.is_inline());
  cb();
  EXPECT_EQ(seen, 42);
}

TEST(InlineCallbackTest, MoveTransfersTargetAndEmptiesSource) {
  int hits = 0;
  InlineCallback a([&hits] { ++hits; });
  InlineCallback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT: post-move state is specified
  EXPECT_FALSE(a.is_inline());
  ASSERT_TRUE(static_cast<bool>(b));
  EXPECT_TRUE(b.is_inline());
  b();
  EXPECT_EQ(hits, 1);

  InlineCallback c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallbackTest, MoveOnlyCapturesAreSchedulable) {
  // The whole point of dropping std::function: a callback owning a moved-in
  // unique_ptr payload can be scheduled directly.
  auto payload = std::make_unique<int>(7);
  int seen = 0;
  InlineCallback cb([p = std::move(payload), &seen] { seen = *p; });
  cb();
  EXPECT_EQ(seen, 7);

  SimEngine engine;
  auto p2 = std::make_unique<int>(11);
  engine.schedule_after(SimDuration::seconds(1), [p = std::move(p2), &seen] {
    seen = *p;
  });
  engine.run();
  EXPECT_EQ(seen, 11);
}

TEST(InlineCallbackTest, ResetAndNullAssignDestroyTheCapture) {
  auto counter = std::make_shared<int>(0);
  struct Probe {
    std::shared_ptr<int> c;
    ~Probe() {
      if (c) ++*c;
    }
    Probe(std::shared_ptr<int> c) : c(std::move(c)) {}
    Probe(Probe&&) noexcept = default;
    void operator()() {}
  };
  {
    InlineCallback cb{Probe{counter}};
    EXPECT_EQ(*counter, 0);  // moved-from temporary's husk holds no pointer
    cb.reset();
    EXPECT_EQ(*counter, 1) << "reset must run the capture's destructor";
    EXPECT_TRUE(cb == nullptr);
  }
  InlineCallback cb2{Probe{counter}};
  cb2 = nullptr;
  EXPECT_EQ(*counter, 2);
  EXPECT_EQ(counter.use_count(), 1) << "no leaked capture copies";
}

TEST(SimEngineTest, FiresInTimestampOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_after(SimDuration::seconds(3), [&] { order.push_back(3); });
  engine.schedule_after(SimDuration::seconds(1), [&] { order.push_back(1); });
  engine.schedule_after(SimDuration::seconds(2), [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now().to_seconds(), 3.0);
}

TEST(SimEngineTest, EqualTimestampsFireFifo) {
  SimEngine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_after(SimDuration::seconds(1), [&, i] { order.push_back(i); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimEngineTest, ClockAdvancesOnlyThroughEvents) {
  SimEngine engine;
  EXPECT_EQ(engine.now(), SimTime::epoch());
  SimTime seen;
  engine.schedule_after(SimDuration::minutes(5), [&] { seen = engine.now(); });
  engine.run();
  EXPECT_EQ(seen, SimTime::epoch() + SimDuration::minutes(5));
}

TEST(SimEngineTest, NestedSchedulingWorks) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_after(SimDuration::seconds(1), [&] {
    ++fired;
    engine.schedule_after(SimDuration::seconds(1), [&] { ++fired; });
  });
  engine.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now().to_seconds(), 2.0);
}

TEST(SimEngineTest, CancelPreventsFiring) {
  SimEngine engine;
  bool fired = false;
  EventHandle h = engine.schedule_after(SimDuration::seconds(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(SimEngineTest, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no crash
}

TEST(SimEngineTest, HandleNotPendingAfterFiring) {
  SimEngine engine;
  EventHandle h = engine.schedule_after(SimDuration::seconds(1), [] {});
  engine.run();
  EXPECT_FALSE(h.pending());
}

TEST(SimEngineTest, StaleHandleDoesNotCancelReusedSlot) {
  SimEngine engine;
  int fired = 0;
  EventHandle a = engine.schedule_after(SimDuration::seconds(1), [&] { fired += 1; });
  a.cancel();
  // The freed slot is recycled by the next event; the stale handle must see
  // the generation mismatch and stay inert.
  EventHandle b = engine.schedule_after(SimDuration::seconds(2), [&] { fired += 10; });
  a.cancel();
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(b.pending());
  engine.run();
  EXPECT_EQ(fired, 10);
}

TEST(SimEngineTest, HandleOfFiredEventDoesNotCancelReusedSlot) {
  SimEngine engine;
  int fired = 0;
  EventHandle a = engine.schedule_after(SimDuration::seconds(1), [&] { fired += 1; });
  engine.run();
  EventHandle b = engine.schedule_after(SimDuration::seconds(1), [&] { fired += 10; });
  a.cancel();  // a's slot now belongs to b
  EXPECT_TRUE(b.pending());
  engine.run();
  EXPECT_EQ(fired, 11);
}

TEST(SimEngineTest, CancelledEventLeavesQueueAtOnce) {
  SimEngine engine;
  EventHandle h = engine.schedule_after(SimDuration::seconds(1), [] {});
  EXPECT_EQ(engine.live_events(), 1u);
  h.cancel();
  EXPECT_EQ(engine.live_events(), 0u);
  EXPECT_TRUE(engine.empty());
  EXPECT_FALSE(engine.peek_next_time(nullptr));
  EXPECT_EQ(engine.run(), 0u);
}

TEST(SimEngineTest, CancelledEventNeverFires) {
  SimEngine engine;
  std::vector<int> order;
  EventHandle a = engine.schedule_after(SimDuration::seconds(1), [&] { order.push_back(1); });
  EventHandle b = engine.schedule_after(SimDuration::seconds(2), [&] { order.push_back(2); });
  EXPECT_EQ(engine.live_events(), 2u);
  a.cancel();
  // The head of the queue is now b: nothing of a is left to surface.
  EXPECT_EQ(engine.live_events(), 1u);
  SimTime next;
  ASSERT_TRUE(engine.peek_next_time(&next));
  EXPECT_EQ(next, SimTime::epoch() + SimDuration::seconds(2));
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_EQ(engine.now(), SimTime::epoch() + SimDuration::seconds(2));
  EXPECT_EQ(engine.live_events(), 0u);
  EXPECT_FALSE(engine.step());
  (void)b;
}

TEST(SimEngineTest, RunUntilStopsAtHorizon) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_after(SimDuration::seconds(1), [&] { ++fired; });
  engine.schedule_after(SimDuration::seconds(10), [&] { ++fired; });
  const auto n = engine.run_until(SimTime::epoch() + SimDuration::seconds(5));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  // The clock lands exactly on the horizon even with pending future work.
  EXPECT_EQ(engine.now().to_seconds(), 5.0);
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimEngineTest, SchedulingInThePastThrows) {
  SimEngine engine;
  engine.schedule_after(SimDuration::seconds(5), [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(SimTime::epoch(), [] {}), CheckFailure);
  EXPECT_THROW(
      engine.schedule_after(SimDuration::zero() - SimDuration::seconds(1), [] {}),
      CheckFailure);
}

TEST(SimEngineTest, StepFiresExactlyOne) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_after(SimDuration::seconds(1), [&] { ++fired; });
  engine.schedule_after(SimDuration::seconds(2), [&] { ++fired; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(fired, 2);
}

TEST(SimEngineTest, CountsFiredEvents) {
  SimEngine engine;
  for (int i = 0; i < 7; ++i) engine.schedule_after(SimDuration::seconds(i + 1), [] {});
  engine.run();
  EXPECT_EQ(engine.events_fired(), 7u);
}

// -- reschedule --------------------------------------------------------------

SimTime at_s(std::int64_t s) { return SimTime::epoch() + SimDuration::seconds(s); }

TEST(SimEngineTest, RescheduleMovesEventEarlierAndLater) {
  SimEngine engine;
  std::vector<int> order;
  EventHandle a = engine.schedule_at(at_s(1), [&] { order.push_back(1); });
  EventHandle b = engine.schedule_at(at_s(2), [&] { order.push_back(2); });
  EventHandle c = engine.schedule_at(at_s(3), [&] { order.push_back(3); });
  EXPECT_TRUE(engine.reschedule(a, at_s(4)));  // later: a now fires last
  EXPECT_TRUE(engine.reschedule(c, at_s(0)));  // earlier: c now fires first
  EXPECT_TRUE(a.pending());
  EXPECT_TRUE(c.pending());
  EXPECT_EQ(engine.live_events(), 3u);
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
  EXPECT_EQ(engine.now(), at_s(4));
  EXPECT_FALSE(a.pending());
  (void)b;
}

TEST(SimEngineTest, RescheduleOntoOccupiedTimeFiresAfterExistingEvent) {
  // A reschedule takes a fresh sequence number, so it lands behind every
  // event already queued at its new time — exactly where cancel() plus
  // schedule_at() would put it. Run both forms side by side.
  const auto run = [](bool in_place) {
    SimEngine engine;
    std::vector<int> order;
    EventHandle a = engine.schedule_at(at_s(5), [&] { order.push_back(1); });
    EventHandle b = engine.schedule_at(at_s(5), [&] { order.push_back(2); });
    (void)engine.schedule_at(at_s(5), [&] { order.push_back(3); });
    EventHandle d = engine.schedule_at(at_s(2), [&] { order.push_back(4); });
    const auto move = [&](EventHandle& h, SimTime t, int id) {
      if (in_place) {
        EXPECT_TRUE(engine.reschedule(h, t));
      } else {
        h.cancel();
        h = engine.schedule_at(t, [&order, id] { order.push_back(id); });
      }
    };
    move(a, at_s(5), 1);  // same time: a drops behind b and the third event
    move(d, at_s(5), 4);  // onto an occupied time from earlier
    move(b, at_s(5), 2);
    engine.run();
    EXPECT_EQ(engine.events_scheduled(), 7u);
    EXPECT_EQ(engine.events_cancelled(), 3u);
    EXPECT_EQ(engine.events_fired(), 4u);
    return order;
  };
  EXPECT_EQ(run(true), (std::vector<int>{3, 1, 4, 2}));
  EXPECT_EQ(run(true), run(false));
}

TEST(SimEngineTest, RescheduleRejectsHandlesNotPendingHere) {
  SimEngine engine;
  SimEngine other;
  int fired = 0;
  EventHandle live = engine.schedule_at(at_s(4), [&] { ++fired; });
  EventHandle done = engine.schedule_at(at_s(1), [&] { ++fired; });
  engine.run_until(at_s(1));
  EventHandle gone = engine.schedule_at(at_s(2), [&] { ++fired; });  // reuses done's slot
  gone.cancel();
  // Same (slot, generation) as `live`, but returned by the other engine.
  EventHandle foreign = other.schedule_at(at_s(3), [&] { ++fired; });

  const auto counts = [](const SimEngine& e) {
    return std::vector<std::uint64_t>{e.events_scheduled(), e.events_fired(),
                                      e.events_cancelled(), e.live_events()};
  };
  const auto mine = counts(engine);
  const auto theirs = counts(other);
  EXPECT_FALSE(engine.reschedule(done, at_s(9)));
  EXPECT_FALSE(engine.reschedule(gone, at_s(9)));
  EXPECT_FALSE(engine.reschedule(EventHandle{}, at_s(9)));
  EXPECT_FALSE(engine.reschedule(foreign, at_s(9)));
  EXPECT_EQ(counts(engine), mine);
  EXPECT_EQ(counts(other), theirs);

  // Nothing moved: both queues still fire at their original times.
  SimTime next;
  ASSERT_TRUE(engine.peek_next_time(&next));
  EXPECT_EQ(next, at_s(4));
  ASSERT_TRUE(other.peek_next_time(&next));
  EXPECT_EQ(next, at_s(3));
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(other.run(), 1u);
  EXPECT_EQ(fired, 3);
  (void)live;
}

TEST(SimEngineTest, ReschedulingIntoThePastThrows) {
  SimEngine engine;
  EventHandle h = engine.schedule_at(at_s(10), [] {});
  engine.run_until(at_s(5));
  EXPECT_THROW(engine.reschedule(h, at_s(4)), CheckFailure);
  // The failed call changed nothing.
  EXPECT_TRUE(h.pending());
  EXPECT_EQ(engine.events_scheduled(), 1u);
  EXPECT_EQ(engine.events_cancelled(), 0u);
  SimTime next;
  ASSERT_TRUE(engine.peek_next_time(&next));
  EXPECT_EQ(next, at_s(10));
  EXPECT_TRUE(engine.reschedule(h, at_s(5)));  // now() itself is allowed
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(engine.now(), at_s(5));
}

TEST(SimEngineTest, CallbackMayCancelAndRescheduleOthers) {
  // The fabric's completion callback re-settles its component, which moves
  // and cancels other flows' completion events from inside a firing event.
  SimEngine engine;
  std::vector<int> order;
  EventHandle b = engine.schedule_at(at_s(2), [&] { order.push_back(2); });
  EventHandle c = engine.schedule_at(at_s(3), [&] { order.push_back(3); });
  EventHandle self;
  self = engine.schedule_at(at_s(1), [&] {
    order.push_back(1);
    EXPECT_FALSE(engine.reschedule(self, at_s(9)));  // already fired
    EXPECT_TRUE(engine.reschedule(c, at_s(1)));
    b.cancel();
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(engine.now(), at_s(1));
}

// -- randomized differential against a reference queue ----------------------

// Reference semantics of the queue: a std::set ordered by (at, seq), where
// every schedule and every successful reschedule takes the next seq.
class ReferenceQueue {
 public:
  struct Key {
    std::int64_t at;
    std::uint64_t seq;
    auto operator<=>(const Key&) const = default;
  };

  std::size_t schedule(std::int64_t at) {
    const std::size_t id = key_of_.size();
    key_of_.push_back(Key{at, seq_++});
    live_.emplace(key_of_[id], id);
    ++scheduled_;
    return id;
  }
  bool pending(std::size_t id) const { return live_.count({key_of_[id], id}) != 0; }
  bool cancel(std::size_t id) {
    if (!pending(id)) return false;
    live_.erase({key_of_[id], id});
    ++cancelled_;
    return true;
  }
  bool reschedule(std::size_t id, std::int64_t at) {
    if (!cancel(id)) return false;
    key_of_[id] = Key{at, seq_++};
    live_.emplace(key_of_[id], id);
    ++scheduled_;
    return true;
  }
  /// Pops every event with at <= horizon, in firing order.
  std::vector<std::size_t> pop_until(std::int64_t horizon, std::size_t limit) {
    std::vector<std::size_t> out;
    while (!live_.empty() && out.size() < limit && live_.begin()->first.at <= horizon) {
      now_ = live_.begin()->first.at;
      out.push_back(live_.begin()->second);
      live_.erase(live_.begin());
    }
    return out;
  }
  void advance(std::int64_t t) { now_ = t; }
  [[nodiscard]] std::int64_t now() const { return now_; }
  [[nodiscard]] std::size_t live() const { return live_.size(); }
  [[nodiscard]] std::uint64_t scheduled() const { return scheduled_; }
  [[nodiscard]] std::uint64_t cancelled() const { return cancelled_; }
  [[nodiscard]] bool empty() const { return live_.empty(); }
  [[nodiscard]] std::int64_t head() const { return live_.begin()->first.at; }
  /// Time of some live event (for reschedules onto an occupied time).
  [[nodiscard]] std::int64_t some_live_time(std::size_t pick) const {
    auto it = live_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(pick % live_.size()));
    return it->first.at;
  }

 private:
  std::vector<Key> key_of_;
  std::set<std::pair<Key, std::size_t>> live_;
  std::uint64_t seq_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::int64_t now_ = 0;
};

TEST(SimEngineDifferential, RandomOperationSequencesMatchReferenceQueue) {
  constexpr std::int64_t kForever = std::numeric_limits<std::int64_t>::max();
  constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
    SimEngine engine;
    ReferenceQueue ref;
    std::vector<EventHandle> handles;  // index = reference id
    std::vector<std::size_t> fired;
    const auto time_near_now = [&] {
      // Few distinct offsets, so many events share a timestamp.
      return ref.now() + static_cast<std::int64_t>(pick(4) == 0 ? pick(50) : pick(3));
    };
    const auto schedule_one = [&] {
      const std::int64_t at = time_near_now();
      const std::size_t id = ref.schedule(at);
      handles.push_back(
          engine.schedule_at(SimTime::from_micros(at), [&fired, id] { fired.push_back(id); }));
    };
    const auto expect_fired = [&](const std::vector<std::size_t>& want) {
      ASSERT_EQ(fired, want);
      fired.clear();
    };

    for (int op = 0; op < 400 && !::testing::Test::HasFatalFailure(); ++op) {
      switch (pick(10)) {
        case 0:
        case 1:
        case 2:
          schedule_one();
          break;
        case 3: {  // cancel any handle ever returned: live, fired or cancelled
          if (handles.empty()) break;
          const std::size_t id = pick(handles.size());
          const std::uint64_t before = engine.events_cancelled();
          handles[id].cancel();
          const bool was_live = ref.cancel(id);
          EXPECT_EQ(engine.events_cancelled() - before, was_live ? 1u : 0u);
          break;
        }
        case 4:
        case 5: {  // reschedule any handle, often onto an occupied time
          if (handles.empty()) break;
          const std::size_t id = pick(handles.size());
          const std::int64_t at =
              !ref.empty() && pick(2) == 0 ? ref.some_live_time(pick(1024)) : time_near_now();
          const bool moved = ref.reschedule(id, at);
          EXPECT_EQ(engine.reschedule(handles[id], SimTime::from_micros(at)), moved);
          break;
        }
        case 6:
        case 7: {  // step
          const std::vector<std::size_t> want = ref.pop_until(kForever, 1);
          EXPECT_EQ(engine.step(), !want.empty());
          expect_fired(want);
          break;
        }
        case 8: {  // run_until a horizon near now
          const std::int64_t horizon = time_near_now();
          const std::vector<std::size_t> want = ref.pop_until(horizon, kAll);
          ref.advance(horizon);
          EXPECT_EQ(engine.run_until(SimTime::from_micros(horizon)), want.size());
          expect_fired(want);
          break;
        }
        default:  // a burst, so the heap grows several levels deep
          for (int k = 0; k < 16; ++k) schedule_one();
          break;
      }
      if (!handles.empty()) {
        const std::size_t id = pick(handles.size());
        ASSERT_EQ(handles[id].pending(), ref.pending(id));
      }
      ASSERT_EQ(engine.now(), SimTime::from_micros(ref.now()));
      ASSERT_EQ(engine.live_events(), ref.live());
      ASSERT_EQ(engine.events_scheduled(), ref.scheduled());
      ASSERT_EQ(engine.events_cancelled(), ref.cancelled());
      ASSERT_EQ(engine.events_scheduled(),
                engine.events_fired() + engine.events_cancelled() + engine.live_events());
      SimTime next;
      ASSERT_EQ(engine.peek_next_time(&next), !ref.empty());
      if (!ref.empty()) {
        ASSERT_EQ(next, SimTime::from_micros(ref.head()));
      }
    }
    // Drain: the remaining events fire in reference order.
    const std::vector<std::size_t> want = ref.pop_until(kForever, kAll);
    EXPECT_EQ(engine.run(), want.size());
    expect_fired(want);
    EXPECT_EQ(engine.now(), SimTime::from_micros(ref.now()));
    EXPECT_TRUE(engine.empty());
  }
}

TEST(PeriodicTaskTest, FiresAtInterval) {
  SimEngine engine;
  int fired = 0;
  PeriodicTask task(engine, SimDuration::seconds(10), [&] { ++fired; });
  task.start();
  engine.run_until(SimTime::epoch() + SimDuration::seconds(35));
  EXPECT_EQ(fired, 3);  // t = 10, 20, 30
}

TEST(PeriodicTaskTest, StopHalts) {
  SimEngine engine;
  int fired = 0;
  PeriodicTask task(engine, SimDuration::seconds(10), [&] { ++fired; });
  task.start();
  engine.run_until(SimTime::epoch() + SimDuration::seconds(25));
  task.stop();
  engine.run_until(SimTime::epoch() + SimDuration::minutes(10));
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTaskTest, CallbackMayStopItself) {
  SimEngine engine;
  int fired = 0;
  PeriodicTask task(engine, SimDuration::seconds(1), [&] {
    if (++fired == 3) task.stop();
  });
  task.start();
  engine.run();
  EXPECT_EQ(fired, 3);
}

TEST(PeriodicTaskTest, DestructorCancels) {
  SimEngine engine;
  int fired = 0;
  {
    PeriodicTask task(engine, SimDuration::seconds(1), [&] { ++fired; });
    task.start();
  }
  engine.run();
  EXPECT_EQ(fired, 0);
}

TEST(PeriodicTaskTest, RestartAfterStop) {
  SimEngine engine;
  int fired = 0;
  PeriodicTask task(engine, SimDuration::seconds(1), [&] { ++fired; });
  task.start();
  engine.run_until(SimTime::epoch() + SimDuration::seconds(2));
  task.stop();
  task.start();
  engine.run_until(SimTime::epoch() + SimDuration::seconds(4));
  EXPECT_EQ(fired, 4);
}

}  // namespace
}  // namespace sage::sim
