// Open-addressing hash map for the streaming data plane's keyed state.
//
// The window/join/top-k operators keep per-key state that is written on
// every record and drained wholesale at window closes. A node-based
// std::unordered_map pays an allocation per key and a pointer chase per
// record; this map stores keys, values and occupancy in three flat arrays
// (linear probing, power-of-two capacity), so the record loop touches
// contiguous memory and a window flush iterates dense storage.
//
// Deletion is tombstone-free: erasing backward-shifts the remainder of the
// probe cluster, so long-running state that churns keys (join expiry)
// never degrades into tombstone scans and rehashes only for growth.
// Iteration order is the slot order — arbitrary but deterministic for a
// fixed insert/erase sequence, which is all the simulator's
// reproducibility contract needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace sage {

template <class Value>
class FlatMap {
 public:
  FlatMap() = default;

  /// Value reference for `key`, default-constructing it if absent.
  Value& operator[](std::uint64_t key) { return *find_or_insert(key).first; }

  /// Pointer to the value for `key` plus whether it was just inserted.
  /// Inserted values start as a fresh `Value()`.
  std::pair<Value*, bool> find_or_insert(std::uint64_t key) {
    if (size_ + 1 > (capacity() * 3) / 4) grow();
    std::size_t i = slot_of(key);
    while (used_[i]) {
      if (keys_[i] == key) return {&vals_[i], false};
      i = (i + 1) & mask_;
    }
    used_[i] = 1;
    keys_[i] = key;
    vals_[i] = Value();  // slots are recycled; reset whatever was parked here
    ++size_;
    return {&vals_[i], true};
  }

  [[nodiscard]] Value* find(std::uint64_t key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }
  [[nodiscard]] const Value* find(std::uint64_t key) const {
    if (size_ == 0) return nullptr;
    std::size_t i = slot_of(key);
    while (used_[i]) {
      if (keys_[i] == key) return &vals_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  [[nodiscard]] bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  /// Start loading the cache lines of `key`'s home slot (occupancy, key and
  /// value), so a loop can request the memory some records before it looks
  /// the key up. A hint only: the map is never changed, and a map with no
  /// storage yet ignores it.
  void prefetch(std::uint64_t key) const {
    if (capacity() == 0) return;  // shift_ is 64 here; slot_of would be UB
    const std::size_t i = slot_of(key);
    __builtin_prefetch(&used_[i]);
    __builtin_prefetch(&keys_[i]);
    __builtin_prefetch(&vals_[i]);
  }

  /// Remove `key`; returns whether it was present. Backward-shifts the
  /// probe cluster so no tombstones are left behind.
  bool erase(std::uint64_t key) {
    if (size_ == 0) return false;
    std::size_t i = slot_of(key);
    while (used_[i]) {
      if (keys_[i] == key) {
        erase_slot(i);
        return true;
      }
      i = (i + 1) & mask_;
    }
    return false;
  }

  /// Drop every key. Capacity (and parked value storage) is retained, so a
  /// window flush that clears and refills pays no allocations.
  void clear() {
    if (size_ == 0) return;
    std::fill(used_.begin(), used_.end(), std::uint8_t{0});
    size_ = 0;
  }

  /// Pre-size for at least `n` keys without rehashing on the way.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) cap <<= 1;  // keep load factor under 3/4
    if (cap > capacity()) rehash(cap);
  }

  /// Visit every (key, value) pair in slot order. `fn` must not mutate the
  /// map; collect keys and erase after when eviction is needed.
  template <class Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (used_[i]) fn(keys_[i], vals_[i]);
    }
  }
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (used_[i]) fn(keys_[i], static_cast<const Value&>(vals_[i]));
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return keys_.size(); }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  // Fibonacci hashing: one multiply spreads the key over the high bits and
  // the shift keeps exactly log2(capacity) of them. An order of magnitude
  // cheaper than a full avalanche mix, and the golden-ratio constant keeps
  // sequential / strided keys (the common case for synthetic workload keys)
  // collision-free across slots.
  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void erase_slot(std::size_t hole) {
    --size_;
    std::size_t i = (hole + 1) & mask_;
    while (used_[i]) {
      // An entry may slide back into the hole only if its home slot is not
      // cyclically inside (hole, i] — otherwise the shift would strand it
      // before its home and break probing.
      const std::size_t home = slot_of(keys_[i]);
      const std::size_t dist_home = (i - home) & mask_;
      const std::size_t dist_hole = (i - hole) & mask_;
      if (dist_home >= dist_hole) {
        keys_[hole] = keys_[i];
        vals_[hole] = std::move(vals_[i]);
        used_[hole] = 1;
        used_[i] = 0;
        hole = i;
      }
      i = (i + 1) & mask_;
    }
    used_[hole] = 0;
  }

  void grow() { rehash(capacity() == 0 ? kMinCapacity : capacity() * 2); }

  void rehash(std::size_t new_cap) {
    SAGE_CHECK((new_cap & (new_cap - 1)) == 0);
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<Value> old_vals = std::move(vals_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    keys_.assign(new_cap, 0);
    vals_.assign(new_cap, Value());
    used_.assign(new_cap, 0);
    mask_ = new_cap - 1;
    shift_ = 64;
    for (std::size_t c = new_cap; c > 1; c >>= 1) --shift_;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (!old_used[i]) continue;
      std::size_t j = slot_of(old_keys[i]);
      while (used_[j]) j = (j + 1) & mask_;
      used_[j] = 1;
      keys_[j] = old_keys[i];
      vals_[j] = std::move(old_vals[i]);
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<Value> vals_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;    // capacity - 1 (capacity is a power of two)
  unsigned shift_ = 64;     // 64 - log2(capacity); see slot_of
};

}  // namespace sage
