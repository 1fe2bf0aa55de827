// Fixed-capacity memo ring for the control plane's pure-function caches.
//
// `get(key, compute)` compares `key` against every held entry (linear
// full-key compare; capacities are tens of entries) and returns the stored
// value on a hit. On a miss it stores `compute()` — appended until the ring
// is full, then over the oldest entry (FIFO eviction) — and returns it. A
// returned reference stays valid until that entry is evicted, at least
// `capacity` misses away. sched::PlanCache and model::ResolveCache are built
// on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace sage {

template <class Key, class Value>
class MemoRing {
 public:
  explicit MemoRing(std::size_t capacity) : capacity_(capacity) {
    SAGE_CHECK(capacity_ >= 1);
    entries_.reserve(capacity_);
  }

  template <class Compute>
  const Value& get(const Key& key, Compute&& compute) {
    for (Entry& e : entries_) {
      if (e.key == key) {
        ++hits_;
        return e.value;
      }
    }
    ++misses_;
    Value fresh = compute();
    if (entries_.size() < capacity_) {
      entries_.push_back(Entry{key, std::move(fresh)});
      return entries_.back().value;
    }
    Entry& victim = entries_[next_victim_];
    next_victim_ = (next_victim_ + 1) % capacity_;
    victim.key = key;
    victim.value = std::move(fresh);
    return victim.value;
  }

  void clear() {
    entries_.clear();
    next_victim_ = 0;
  }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    Key key;
    Value value;
  };

  std::size_t capacity_;
  std::vector<Entry> entries_;
  std::size_t next_victim_ = 0;  // ring replacement once full
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace sage
