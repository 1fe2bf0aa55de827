// Tests for the open-addressing FlatMap backing the keyed operator state.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"

namespace sage {
namespace {

TEST(FlatMapTest, InsertFindErase) {
  FlatMap<int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(7), nullptr);
  m[7] = 42;
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 42);
  EXPECT_TRUE(m.contains(7));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.erase(7));
  EXPECT_FALSE(m.erase(7));
  EXPECT_FALSE(m.contains(7));
  EXPECT_TRUE(m.empty());
}

TEST(FlatMapTest, FindOrInsertReportsInsertion) {
  FlatMap<double> m;
  auto [p1, fresh1] = m.find_or_insert(3);
  EXPECT_TRUE(fresh1);
  EXPECT_EQ(*p1, 0.0);
  *p1 = 1.5;
  auto [p2, fresh2] = m.find_or_insert(3);
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(*p2, 1.5);
}

TEST(FlatMapTest, RecycledSlotsStartFresh) {
  FlatMap<std::vector<int>> m;
  m[1].push_back(9);
  m.clear();
  // Re-inserting the same key after clear must see a default value, not the
  // parked storage's old contents.
  auto [v, fresh] = m.find_or_insert(1);
  EXPECT_TRUE(fresh);
  EXPECT_TRUE(v->empty());
}

TEST(FlatMapTest, GrowthUnderMillionInserts) {
  // Single-session skew torture: a million keys, every one checked back.
  FlatMap<std::uint64_t> m;
  constexpr std::uint64_t kN = 1'000'000;
  for (std::uint64_t k = 0; k < kN; ++k) m[k * 2654435761ULL] = k;
  EXPECT_EQ(m.size(), kN);
  for (std::uint64_t k = 0; k < kN; ++k) {
    const std::uint64_t* v = m.find(k * 2654435761ULL);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, k);
  }
}

TEST(FlatMapTest, SingleKeySkew) {
  // The degenerate hot-key case: one key hammered a million times must not
  // grow the table or disturb the value.
  FlatMap<std::uint64_t> m;
  for (int i = 0; i < 1'000'000; ++i) *m.find_or_insert(77).first += 1;
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(*m.find(77), 1'000'000u);
  EXPECT_LE(m.capacity(), 16u);
}

TEST(FlatMapTest, MatchesUnorderedMapUnderChurn) {
  // Randomized differential test against std::unordered_map, with enough
  // erases to exercise backward-shift deletion inside probe clusters.
  FlatMap<int> m;
  std::unordered_map<std::uint64_t, int> ref;
  Rng rng(123);
  for (int step = 0; step < 200'000; ++step) {
    // Small key domain forces collisions and long probe chains.
    const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 512));
    const auto action = rng.uniform_int(0, 3);
    if (action == 0) {
      EXPECT_EQ(m.erase(key), ref.erase(key) > 0);
    } else {
      m[key] = static_cast<int>(step);
      ref[key] = step;
    }
  }
  EXPECT_EQ(m.size(), ref.size());
  for (const auto& [k, v] : ref) {
    const int* got = m.find(k);
    ASSERT_NE(got, nullptr) << "key " << k;
    EXPECT_EQ(*got, v);
  }
  std::size_t visited = 0;
  m.for_each([&](std::uint64_t k, int v) {
    ++visited;
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(it->second, v);
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(FlatMapTest, ClearRetainsCapacity) {
  FlatMap<int> m;
  for (std::uint64_t k = 0; k < 1000; ++k) m[k] = 1;
  const std::size_t cap = m.capacity();
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.capacity(), cap);
  for (std::uint64_t k = 0; k < 1000; ++k) m[k] = 2;
  EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatMapTest, ReservePreventsRehash) {
  FlatMap<int> m;
  m.reserve(1000);
  const std::size_t cap = m.capacity();
  EXPECT_GE(cap * 3, 1000u * 4 / 2);  // sized for load factor < 3/4
  for (std::uint64_t k = 0; k < 1000; ++k) m[k] = 1;
  EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatMapTest, PrefetchChangesNothing) {
  // prefetch() is a cache hint. It must be safe on a map with no storage
  // (shift_ is 64 there, so an unguarded slot_of shifts by the type width),
  // after clear() and across growth, and it must leave contents and slot
  // order exactly as in a twin map that never prefetches.
  FlatMap<int> m;
  FlatMap<int> twin;
  m.prefetch(42);
  EXPECT_EQ(m.capacity(), 0u);
  EXPECT_TRUE(m.empty());
  Rng rng(31);
  for (int step = 0; step < 20'000; ++step) {
    if (step == 10'000) {
      m.clear();
      twin.clear();
      m.prefetch(3);
    }
    const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 14));
    m.prefetch(key);
    m.prefetch(key * 2654435761ULL);  // mostly absent keys
    m[key] += step;
    twin[key] += step;
  }
  EXPECT_EQ(m.size(), twin.size());
  EXPECT_EQ(m.capacity(), twin.capacity());
  std::vector<std::pair<std::uint64_t, int>> got;
  std::vector<std::pair<std::uint64_t, int>> want;
  m.for_each([&](std::uint64_t k, int v) { got.emplace_back(k, v); });
  twin.for_each([&](std::uint64_t k, int v) { want.emplace_back(k, v); });
  EXPECT_EQ(got, want);
  for (const auto& [k, v] : want) {
    m.prefetch(k);
    const int* p = m.find(k);
    ASSERT_NE(p, nullptr) << "key " << k;
    EXPECT_EQ(*p, v);
  }
}

TEST(FlatMapTest, DeterministicIterationOrder) {
  // Same insert/erase sequence -> same slot order, twice over.
  auto build = [] {
    FlatMap<int> m;
    for (std::uint64_t k = 100; k > 0; --k) m[k * 31] = static_cast<int>(k);
    for (std::uint64_t k = 1; k <= 100; k += 3) m.erase(k * 31);
    std::vector<std::uint64_t> order;
    m.for_each([&](std::uint64_t key, int) { order.push_back(key); });
    return order;
  };
  EXPECT_EQ(build(), build());
}

}  // namespace
}  // namespace sage
