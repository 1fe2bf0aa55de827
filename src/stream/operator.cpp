#include "stream/operator.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace sage::stream {

StatelessOperator::StatelessOperator(std::string name, MapFn map, FilterPred filter,
                                     BatchApplyFn apply, double cost, ValueUse values)
    : name_(std::move(name)), map_(std::move(map)), filter_(std::move(filter)),
      apply_(std::move(apply)), cost_(cost), values_(values) {
  SAGE_CHECK_MSG((map_ != nullptr) != (filter_ != nullptr),
                 "a stateless operator is exactly one of map / filter");
  SAGE_CHECK_MSG(apply_ != nullptr, "a stateless operator needs its batch pass");
  SAGE_CHECK(cost_ > 0.0);
}

void StatelessOperator::process(int port, const RecordBatch& in, RecordBatch& out) {
  SAGE_CHECK_MSG(port == 0, "a stateless operator has a single input port");
  const std::size_t n = in.size();
  out.reserve(out.size() + n);
  for (std::size_t i = 0; i < n; ++i) {
    const Record r = in.row(i);
    if (map_) {
      out.add(map_(r));
    } else if (filter_(r)) {
      out.add(r);
    }
  }
}

WindowAggregateOperator::WindowAggregateOperator(std::string name, SimDuration window,
                                                 SimDuration slide, AggregateFn fn,
                                                 Bytes output_record_size, double cost)
    : name_(std::move(name)), slide_(slide), fn_(fn), out_size_(output_record_size),
      cost_(cost) {
  SAGE_CHECK(window > SimDuration::zero());
  SAGE_CHECK(slide > SimDuration::zero());
  SAGE_CHECK_MSG(window.count_micros() % slide.count_micros() == 0,
                 "slide must divide the window length");
  SAGE_CHECK(cost_ > 0.0);
  older_.resize(static_cast<std::size_t>(window.count_micros() / slide.count_micros()) - 1);
}

std::size_t WindowAggregateOperator::active_keys() const {
  std::size_t n = state_.size();
  for (const Pane& pane : older_) n += pane.size();
  return n;
}

void WindowAggregateOperator::process(int port, const RecordBatch& in, RecordBatch& out) {
  SAGE_CHECK_MSG(port == 0, "window aggregate has a single input port");
  (void)out;  // results are emitted on window close, not per batch
  // Presize the keyed state for the all-new-keys worst case so the gather
  // loop never rehashes mid-batch; FlatMap keeps capacity across window
  // flushes, so a steady-state pipeline pays the growth once.
  state_.reserve(state_.size() + in.size());
  switch (fn_) {
    case AggregateFn::kSum:
      fold<AggregateFn::kSum>(in);
      break;
    case AggregateFn::kCount:
      fold<AggregateFn::kCount>(in);
      break;
    case AggregateFn::kMean:
      fold<AggregateFn::kMean>(in);
      break;
    case AggregateFn::kMin:
      fold<AggregateFn::kMin>(in);
      break;
    case AggregateFn::kMax:
      fold<AggregateFn::kMax>(in);
      break;
  }
}

template <AggregateFn F>
void WindowAggregateOperator::fold(const RecordBatch& in) {
  // Keyed gather: read the touched columns directly instead of
  // materializing 32-byte Records (the wire column is dead here, and so is
  // the value column of a count).
  const std::size_t n = in.size();
  const std::uint64_t* keys = in.keys().data();
  const double* values = in.values().data();
  const SimTime* times = in.event_times().data();
  // Cold keys in a Zipf tail miss the cache; requesting each key's slot
  // kPrefetchAhead records early overlaps those misses with the updates in
  // between. A hint only: slots, update order and results are unchanged.
  constexpr std::size_t kPrefetchAhead = 16;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) state_.prefetch(keys[i + kPrefetchAhead]);
    auto [s, inserted] = state_.find_or_insert(keys[i]);
    if (inserted) {
      s->oldest_event = times[i];
      if constexpr (F == AggregateFn::kMin || F == AggregateFn::kMax) s->acc = values[i];
    } else {
      if (times[i] < s->oldest_event) s->oldest_event = times[i];
      if constexpr (F == AggregateFn::kMin) s->acc = std::min(s->acc, values[i]);
      if constexpr (F == AggregateFn::kMax) s->acc = std::max(s->acc, values[i]);
    }
    if constexpr (F == AggregateFn::kSum || F == AggregateFn::kMean) s->acc += values[i];
    ++s->count;
  }
}

void WindowAggregateOperator::combine_panes() {
  auto merge = [&](const Pane& pane) {
    pane.for_each([&](std::uint64_t key, const KeyState& s) {
      auto [w, inserted] = scratch_.find_or_insert(key);
      if (inserted) {
        *w = s;
        return;
      }
      switch (fn_) {
        case AggregateFn::kSum:
        case AggregateFn::kMean:
          w->acc += s.acc;
          break;
        case AggregateFn::kMin:
          w->acc = std::min(w->acc, s.acc);
          break;
        case AggregateFn::kMax:
          w->acc = std::max(w->acc, s.acc);
          break;
        case AggregateFn::kCount:
          break;
      }
      w->count += s.count;
      if (s.oldest_event < w->oldest_event) w->oldest_event = s.oldest_event;
    });
  };
  merge(state_);
  for (const Pane& pane : older_) merge(pane);
  std::swap(state_, scratch_);
}

void WindowAggregateOperator::on_timer(SimTime now, RecordBatch& out) {
  (void)now;
  if (older_.empty()) {
    flush(out);
    return;
  }
  combine_panes();
  flush(out);
  // Slide: the current pane (left in scratch_) becomes the newest older
  // pane, and the oldest one, emptied, is the next scratch map.
  std::swap(scratch_, older_.back());
  std::rotate(older_.begin(), older_.end() - 1, older_.end());
  scratch_.clear();
}

void WindowAggregateOperator::flush(RecordBatch& out) {
  // Columnar scatter: presize the four columns once and write through raw
  // pointers — the dense window flush is the second-hottest keyed path
  // after the per-record update loop. Emission order, values, and the
  // tracked wire total are exactly those of the record-at-a-time form.
  const std::size_t base = out.size();
  const std::size_t n = state_.size();
  auto& et = out.event_times();
  auto& ks = out.keys();
  auto& vs = out.values();
  auto& ws = out.wire_sizes();
  et.resize(base + n);
  ks.resize(base + n);
  vs.resize(base + n);
  ws.resize(base + n);
  SimTime* ep = et.data() + base;
  std::uint64_t* kp = ks.data() + base;
  double* vp = vs.data() + base;
  Bytes* wp = ws.data() + base;
  auto scatter = [&](auto value_of) {
    std::size_t i = 0;
    state_.for_each([&](std::uint64_t key, const KeyState& s) {
      kp[i] = key;
      ep[i] = s.oldest_event;
      wp[i] = out_size_;
      vp[i] = value_of(s);
      ++i;
    });
  };
  switch (fn_) {
    case AggregateFn::kSum:
    case AggregateFn::kMin:
    case AggregateFn::kMax:
      scatter([](const KeyState& s) { return s.acc; });
      break;
    case AggregateFn::kCount:
      scatter([](const KeyState& s) { return static_cast<double>(s.count); });
      break;
    case AggregateFn::kMean:
      scatter([](const KeyState& s) { return s.acc / static_cast<double>(s.count); });
      break;
  }
  out.set_wire_size(out.wire_size() +
                    Bytes::of(out_size_.count() * static_cast<std::int64_t>(n)));
  state_.clear();
}

WindowJoinOperator::WindowJoinOperator(std::string name, SimDuration window,
                                       Combiner combiner, Bytes output_record_size,
                                       double cost)
    : name_(std::move(name)), window_(window), combiner_(std::move(combiner)),
      out_size_(output_record_size), cost_(cost) {
  SAGE_CHECK(window > SimDuration::zero());
  SAGE_CHECK(combiner_ != nullptr);
  SAGE_CHECK(cost_ > 0.0);
}

void WindowJoinOperator::process(int port, const RecordBatch& in, RecordBatch& out) {
  SAGE_CHECK_MSG(port == 0 || port == 1, "join has two input ports");
  auto& own = (port == 0) ? left_ : right_;
  auto& other = (port == 0) ? right_ : left_;
  const std::size_t n = in.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Record r = in.row(i);
    // Probe the opposite side first, then insert.
    if (const std::vector<Record>* matches = other.find(r.key)) {
      for (const Record& m : *matches) {
        Record j;
        j.key = r.key;
        // Latency accounting: a join result is as old as its older parent.
        j.event_time = std::min(r.event_time, m.event_time);
        j.value = (port == 0) ? combiner_(r.value, m.value) : combiner_(m.value, r.value);
        j.wire_size = out_size_;
        out.add(j);
      }
    }
    auto [side, inserted] = own.find_or_insert(r.key);
    if (inserted) side->reserve(8);  // skip the 1/2/4 growth stairs per key
    side->push_back(r);
  }
}

void WindowJoinOperator::expire(SimTime now) {
  const SimTime cutoff_guard = SimTime::epoch() + window_;
  const SimTime cutoff = now < cutoff_guard ? SimTime::epoch() : now - window_;
  auto sweep = [this, cutoff](FlatMap<std::vector<Record>>& side) {
    evict_scratch_.clear();
    side.for_each([&](std::uint64_t key, std::vector<Record>& v) {
      std::erase_if(v, [cutoff](const Record& r) { return r.event_time < cutoff; });
      if (v.empty()) evict_scratch_.push_back(key);
    });
    for (std::uint64_t key : evict_scratch_) side.erase(key);
  };
  sweep(left_);
  sweep(right_);
}

void WindowJoinOperator::on_timer(SimTime now, RecordBatch& out) {
  (void)out;  // joins emit eagerly; the timer only expires stale state
  expire(now);
}

std::size_t WindowJoinOperator::buffered() const {
  std::size_t n = 0;
  left_.for_each([&](std::uint64_t, const std::vector<Record>& v) { n += v.size(); });
  right_.for_each([&](std::uint64_t, const std::vector<Record>& v) { n += v.size(); });
  return n;
}

TopKOperator::TopKOperator(std::string name, SimDuration window, int k, bool sum_values,
                           Bytes output_record_size, double cost)
    : name_(std::move(name)), window_(window), k_(k), sum_values_(sum_values),
      out_size_(output_record_size), cost_(cost) {
  SAGE_CHECK(window > SimDuration::zero());
  SAGE_CHECK(k_ >= 1);
  SAGE_CHECK(cost_ > 0.0);
}

void TopKOperator::process(int port, const RecordBatch& in, RecordBatch& out) {
  SAGE_CHECK_MSG(port == 0, "top-k has a single input port");
  (void)out;
  const std::size_t n = in.size();
  const std::uint64_t* keys = in.keys().data();
  const double* values = in.values().data();
  const SimTime* times = in.event_times().data();
  for (std::size_t i = 0; i < n; ++i) {
    auto [kw, inserted] = weights_.find_or_insert(keys[i]);
    if (inserted || times[i] < kw->oldest_event) kw->oldest_event = times[i];
    kw->weight += sum_values_ ? values[i] : 1.0;
  }
}

void TopKOperator::on_timer(SimTime now, RecordBatch& out) {
  (void)now;
  if (weights_.empty()) return;
  sort_scratch_.clear();
  sort_scratch_.reserve(weights_.size());
  weights_.for_each([&](std::uint64_t key, const KeyWeight& kw) {
    sort_scratch_.emplace_back(key, kw);
  });
  auto& entries = sort_scratch_;
  const auto cutoff =
      std::min(static_cast<std::size_t>(k_), entries.size());
  std::partial_sort(entries.begin(),
                    entries.begin() + static_cast<std::ptrdiff_t>(cutoff), entries.end(),
                    [](const auto& a, const auto& b) {
                      if (a.second.weight != b.second.weight) {
                        return a.second.weight > b.second.weight;
                      }
                      return a.first < b.first;  // deterministic ties
                    });
  for (std::size_t i = 0; i < cutoff; ++i) {
    Record r;
    r.key = entries[i].first;
    r.value = entries[i].second.weight;
    r.event_time = entries[i].second.oldest_event;
    r.wire_size = out_size_;
    out.add(r);
  }
  weights_.clear();
}

std::shared_ptr<Operator> make_window_aggregate(std::string name, SimDuration window,
                                                AggregateFn fn, Bytes output_record_size,
                                                double cost) {
  return std::make_shared<WindowAggregateOperator>(std::move(name), window, window, fn,
                                                   output_record_size, cost);
}

std::shared_ptr<Operator> make_window_join(std::string name, SimDuration window,
                                           WindowJoinOperator::Combiner combiner,
                                           Bytes output_record_size, double cost) {
  return std::make_shared<WindowJoinOperator>(std::move(name), window, std::move(combiner),
                                              output_record_size, cost);
}

std::shared_ptr<Operator> make_sliding_window_aggregate(std::string name,
                                                        SimDuration window,
                                                        SimDuration slide, AggregateFn fn,
                                                        Bytes output_record_size,
                                                        double cost) {
  return std::make_shared<WindowAggregateOperator>(std::move(name), window, slide, fn,
                                                   output_record_size, cost);
}

std::shared_ptr<Operator> make_top_k(std::string name, SimDuration window, int k,
                                     bool sum_values, Bytes output_record_size,
                                     double cost) {
  return std::make_shared<TopKOperator>(std::move(name), window, k, sum_values,
                                        output_record_size, cost);
}

}  // namespace sage::stream
