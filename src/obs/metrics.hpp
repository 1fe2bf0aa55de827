// Sim-time metrics registry: counters, gauges and fixed-bucket histograms
// keyed by interned (name, label-set) pairs.
//
// Design constraints, in order:
//   * zero overhead when observability is disabled — components cache raw
//     cell pointers at construction and guard every touch with one null
//     check, so the disabled path is a predictable untaken branch;
//   * deterministic output — snapshots render entries sorted by full key,
//     values come only from simulated quantities, so two runs of the same
//     seed produce byte-identical snapshots at any harness thread count;
//   * single-threaded per registry — one registry belongs to one World
//     (one SimEngine); the parallel scenario harness merges per-World
//     registries on the main thread (see merge()).
//
// Interning reuses common/flat_map.hpp: the full key string hashes to a
// 64-bit slot; the (astronomically unlikely) colliding key falls back to a
// linear overflow list, so lookups stay correct without a second hash map.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"

namespace sage::obs {

/// Monotonically increasing event count. Cells are owned by the registry
/// and stay valid for its lifetime (deque storage, no reallocation).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  friend class MetricsRegistry;
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value (queue depth, utilization, watermark).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  friend class MetricsRegistry;
  double value_ = 0.0;
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds in ascending
/// order, with an implicit +inf bucket at the end. Bounds are fixed at
/// creation so merge() across Worlds is bucket-wise addition.
class Histogram {
 public:
  void observe(double v) {
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    ++counts_[i];
    sum_ += v;
    ++count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const { return counts_; }

 private:
  friend class MetricsRegistry;
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  // bounds.size() + 1 (last = +inf)
  double sum_ = 0.0;
  std::uint64_t count_ = 0;
};

/// One label dimension, e.g. {"link", "NorthEU->NorthUS"}.
using Label = std::pair<std::string, std::string>;
using LabelSet = std::vector<Label>;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. The returned cell pointer is stable for the registry's
  /// lifetime; hot paths resolve once and keep the pointer. Re-requesting an
  /// existing key with a different instrument kind is a checked error.
  Counter* counter(std::string_view name, const LabelSet& labels = {});
  Gauge* gauge(std::string_view name, const LabelSet& labels = {});
  Histogram* histogram(std::string_view name, std::vector<double> bounds,
                       const LabelSet& labels = {});

  /// Existing cell or nullptr — used by tests and snapshot consumers that
  /// must not create empty series.
  [[nodiscard]] const Counter* find_counter(std::string_view name,
                                            const LabelSet& labels = {}) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name,
                                        const LabelSet& labels = {}) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name,
                                                const LabelSet& labels = {}) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Presize the interned-key index for `n` total entries (no-op when
  /// already large enough). merge() calls this with the source registry's
  /// size so high-task-count harness merges never rehash mid-fold.
  void reserve(std::size_t n) { index_.reserve(n); }

  /// Fold another World's registry into this one: counters and histogram
  /// buckets add, gauges take the incoming value (last write wins — the
  /// merged registry reports the most recently merged World's instantaneous
  /// state). Histogram bounds must match.
  void merge(const MetricsRegistry& other);

  /// Deterministic snapshots: entries sorted by full key.
  [[nodiscard]] std::string snapshot_json() const;

  /// Canonical key spelling: name{k1=v1,k2=v2} with labels sorted by key.
  [[nodiscard]] static std::string make_key(std::string_view name, const LabelSet& labels);

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string key;
    Kind kind = Kind::kCounter;
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  Entry* resolve(const std::string& key, Kind kind);
  [[nodiscard]] const Entry* lookup(const std::string& key) const;

  std::deque<Entry> entries_;          // stable addresses
  FlatMap<std::uint32_t> index_;       // hash(key) -> entry index
  std::vector<std::uint32_t> overflow_;  // entries whose key hash collided
};

/// Append `s` to `out` as a quoted JSON string: quotes, backslashes,
/// newlines and tabs get their short escapes, other control characters
/// \u00XX.
void append_json_string(std::string& out, std::string_view s);

}  // namespace sage::obs
