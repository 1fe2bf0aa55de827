#include "simcore/engine.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/check.hpp"
#include "obs/obs.hpp"

namespace sage::sim {

SimEngine::SimEngine() = default;
SimEngine::~SimEngine() = default;

void EventHandle::cancel() {
  if (engine_ == nullptr || !engine_->live(slot_, gen_)) return;
  engine_->cancel_slot(slot_);
}

bool EventHandle::pending() const { return engine_ != nullptr && engine_->live(slot_, gen_); }

EventHandle SimEngine::schedule_at(SimTime t, Callback fn) {
  SAGE_CHECK_MSG(t >= now_, "cannot schedule an event in the simulated past");
  SAGE_CHECK(fn != nullptr);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    heap_pos_.push_back(0);
  }
  Slot& s = slots_[slot];
  ++s.gen;  // even -> odd: live
  s.fn = std::move(fn);
  heap_.push_back(Entry{t, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  ++scheduled_;
  return EventHandle{this, slot, s.gen};
}

EventHandle SimEngine::schedule_after(SimDuration delay, Callback fn) {
  SAGE_CHECK_MSG(!delay.is_negative(), "negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

bool SimEngine::reschedule(const EventHandle& h, SimTime t) {
  if (h.engine_ != this || !live(h.slot_, h.gen_)) return false;
  SAGE_CHECK_MSG(t >= now_, "cannot reschedule an event into the simulated past");
  const std::size_t i = heap_pos_[h.slot_];
  // The fresh seq orders after every existing entry, so the new key is
  // greater than the old one exactly when t is not earlier.
  const bool later = t >= heap_[i].at;
  heap_[i].at = t;
  heap_[i].seq = next_seq_++;
  if (later) {
    sift_down(i);
  } else {
    sift_up(i);
  }
  ++cancelled_;
  ++scheduled_;
  return true;
}

void SimEngine::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;  // odd -> even: dead; outstanding handles now mismatch
  s.fn = nullptr;
  free_slots_.push_back(slot);
}

void SimEngine::cancel_slot(std::uint32_t slot) {
  remove_at(heap_pos_[slot]);
  ++cancelled_;
  release_slot(slot);
}

void SimEngine::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

std::size_t SimEngine::min_child(std::size_t first) const {
  const std::size_t last = std::min(first + 4, heap_.size());
  std::size_t child = first;
  for (std::size_t c = first + 1; c < last; ++c) {
    child = before(heap_[c], heap_[child]) ? c : child;
  }
  return child;
}

void SimEngine::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  for (std::size_t first = 4 * i + 1; first < n; first = 4 * i + 1) {
    const std::size_t child = min_child(first);
    if (!before(heap_[child], e)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, e);
}

void SimEngine::pop_root() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (std::size_t first = 1; first < n; first = 4 * i + 1) {
    const std::size_t child = min_child(first);
    place(i, heap_[child]);
    i = child;
  }
  heap_[i] = last;
  sift_up(i);
}

void SimEngine::remove_at(std::size_t i) {
  const Entry moved = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  heap_[i] = moved;
  if (i > 0 && before(moved, heap_[(i - 1) / 4])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void SimEngine::enable_obs(const obs::ObsConfig& /*config*/) {
  if (obs_ == nullptr) obs_ = std::make_unique<obs::Observability>();
}

bool SimEngine::enable_obs_from_env() {
  const char* v = std::getenv("SAGE_OBS");
  if (v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0')) {
    enable_obs(obs::ObsConfig{});
  }
  return obs_ != nullptr;
}

void SimEngine::publish_obs_metrics() {
  if (obs_ == nullptr) return;
  auto& m = obs_->metrics();
  m.counter("sim.events.scheduled")->add(scheduled_ - pub_scheduled_);
  m.counter("sim.events.fired")->add(fired_ - pub_fired_);
  m.counter("sim.events.cancelled")->add(cancelled_ - pub_cancelled_);
  pub_scheduled_ = scheduled_;
  pub_fired_ = fired_;
  pub_cancelled_ = cancelled_;
  m.gauge("sim.events.live")->set(static_cast<double>(live_events()));
  m.gauge("sim.time_seconds")->set(now_.to_seconds());
}

bool SimEngine::fire_next() {
  if (heap_.empty()) return false;
  const Entry top = heap_.front();
  pop_root();
  Callback fn = std::move(slots_[top.slot].fn);
  release_slot(top.slot);
  now_ = top.at;
  ++fired_;
  fn();
  return true;
}

std::uint64_t SimEngine::run() {
  std::uint64_t n = 0;
  while (fire_next()) ++n;
  return n;
}

std::uint64_t SimEngine::run_until(SimTime t) {
  SAGE_CHECK(t >= now_);
  std::uint64_t n = 0;
  while (!heap_.empty() && heap_.front().at <= t) {
    fire_next();
    ++n;
  }
  now_ = t;
  return n;
}

bool SimEngine::step() { return fire_next(); }

bool SimEngine::peek_next_time(SimTime* t) const {
  if (heap_.empty()) return false;
  if (t != nullptr) *t = heap_.front().at;
  return true;
}

PeriodicTask::PeriodicTask(SimEngine& engine, SimDuration interval, SimEngine::Callback fn)
    : engine_(engine), interval_(interval), fn_(std::move(fn)) {
  SAGE_CHECK(interval_ > SimDuration::zero());
  SAGE_CHECK(fn_ != nullptr);
}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::start() {
  if (running_) return;
  running_ = true;
  arm();
}

void PeriodicTask::stop() {
  running_ = false;
  next_.cancel();
}

void PeriodicTask::arm() {
  next_ = engine_.schedule_after(interval_, [this] {
    if (!running_) return;
    fn_();
    if (running_) arm();
  });
}

}  // namespace sage::sim
