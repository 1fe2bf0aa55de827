// Streaming operators.
//
// Operators are batch transformers with up to two input ports (port 1 is
// only used by joins). Time-driven operators (windows, joins) additionally
// expose a flush cadence; the runtime calls on_timer at that interval with
// the current simulated time, which is when window results are emitted
// (processing-time windows — appropriate for the monitoring-style analyses
// SAGE targets and deterministic under simulation).
//
// Each operator advertises a per-record CPU cost in abstract work units;
// the site executor turns that into simulated processing time through the
// host VM's (time-varying) compute throughput.
//
// Two hot-path mechanisms keep the data plane cheap:
//
//   * The one stateless operator, `StatelessOperator` (every map and filter
//     factory builds one), transforms the batch in place with one
//     whole-batch pass (`apply`) — no intermediate RecordBatch is
//     materialized and the input buffer flows through to the output.
//   * Keyed state (window aggregates, joins, top-k) lives in
//     open-addressing `FlatMap`s (common/flat_map.hpp) so the per-record
//     update path probes flat arrays and window flushes iterate dense
//     storage.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#define SAGE_COMPACT_AVX2 1
#include <immintrin.h>
#endif

#include "common/check.hpp"
#include "common/flat_map.hpp"
#include "stream/record.hpp"

namespace sage::stream {

using MapFn = std::function<Record(const Record&)>;
using FilterPred = std::function<bool(const Record&)>;
/// Whole-batch in-place transform (rewrite records / compact, maintaining
/// the batch's wire-byte total).
using BatchApplyFn = std::function<void(RecordBatch&)>;

/// Wrap a per-record map into a whole-batch scalar pass: gather each row,
/// apply the callable, scatter it back. Instantiated on the *concrete*
/// callable type, so the record loop inlines the user lambda — one
/// type-erased call per batch instead of one per record. This is the batch
/// pass of a generic record map, which has no columnar form.
template <class F>
BatchApplyFn make_map_apply(F f) {
  return [f = std::move(f)](RecordBatch& batch) {
    const std::size_t n = batch.size();
    Bytes total = Bytes::zero();
    for (std::size_t i = 0; i < n; ++i) {
      const Record r = f(batch.row(i));
      batch.set_row(i, r);
      total += r.wire_size;
    }
    batch.set_wire_size(total);
  };
}

// Column-wise kernels: the batch passes of filters and of the field-typed
// factories. Each is instantiated on the concrete callable and walks only
// the columns it needs — no Record is materialized. Every kernel computes
// exactly what its operator's record-level map / filter computes row by
// row (same floating-point operations on the same operands in the same
// order); the stream tests hold each kernel to that row-at-a-time oracle.

/// Value map `double -> double`: one tight loop over the value column.
/// Event-time / key / wire columns — and therefore the tracked wire-byte
/// total — are untouched.
template <class F>
BatchApplyFn make_value_map_kernel(F f) {
  return [f = std::move(f)](RecordBatch& batch) {
    double* v = batch.values().data();
    const std::size_t n = batch.size();
    for (std::size_t i = 0; i < n; ++i) v[i] = f(v[i]);
  };
}

namespace detail {

/// The scalar compaction loop: rows [i, n) decide their fate in order,
/// survivors slide forward to the write cursor `w` (always <= i, so stable
/// and in-place safe) and their wire bytes add to `total`; then the batch is
/// cut to its survivors. The whole pass on hosts without AVX2, and the tail
/// of the AVX2 body.
template <class Pred>
inline void compact_rows(RecordBatch& batch, std::size_t i, std::size_t w,
                         std::int64_t total, Pred& keep_row) {
  const std::size_t n = batch.size();
  SimTime* t = batch.event_times().data();
  std::uint64_t* k = batch.keys().data();
  double* v = batch.values().data();
  Bytes* wire = batch.wire_sizes().data();
  for (; i < n; ++i) {
    if (keep_row(i)) {
      t[w] = t[i];
      k[w] = k[i];
      v[w] = v[i];
      wire[w] = wire[i];
      total += wire[i].count();
      ++w;
    }
  }
  batch.truncate(w);
  batch.set_wire_size(Bytes::of(total));
}

#ifdef SAGE_COMPACT_AVX2
/// One-time CPUID probe for the AVX2 left-packing compaction.
inline bool avx2_available() {
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
}

/// Tables for 4-lane 64-bit left packing. `perm[m]` is the epi32 index
/// vector that moves the set lanes of 4-bit mask `m` to the front in
/// stable order (each 64-bit lane is an adjacent pair of 32-bit indexes);
/// `head[c]` is an all-ones mask over the first `c` 64-bit lanes, used to
/// restrict the wire-byte accumulator to the surviving lanes.
struct CompactLut {
  alignas(32) std::int32_t perm[16][8];
  alignas(32) std::int64_t head[5][4];
  CompactLut() {
    for (int m = 0; m < 16; ++m) {
      int out = 0;
      for (int lane = 0; lane < 4; ++lane) {
        if ((m >> lane) & 1) {
          perm[m][2 * out] = 2 * lane;
          perm[m][2 * out + 1] = 2 * lane + 1;
          ++out;
        }
      }
      for (; out < 4; ++out) {
        perm[m][2 * out] = 0;
        perm[m][2 * out + 1] = 1;
      }
    }
    for (int c = 0; c <= 4; ++c) {
      for (int lane = 0; lane < 4; ++lane) head[c][lane] = lane < c ? -1 : 0;
    }
  }
};

inline const CompactLut& compact_lut() {
  static const CompactLut lut;
  return lut;
}

/// Branchless 4-wide compaction body. The predicate still runs scalar, row
/// by row in order (bit-identical to the scalar loop); only the data
/// movement is vectorized: a 4-bit keep mask picks a permutation that left-
/// packs the group's lanes in all four columns, stores land unconditionally
/// at the write cursor (lanes past the survivor count hold duplicates that
/// the next group or the final truncate overwrites), and the wire-byte
/// total accumulates masked int64 lanes — integer addition, so the
/// re-associated sum equals the scalar running sum exactly. This removes
/// the one data-dependent branch per row, whose ~10-30% mispredict rate
/// under typical filter selectivities dominates the scalar loop's cost.
/// The last n % 4 rows run through compact_rows.
///
/// In-place safety: all reads of group [i, i+4) happen before its stores,
/// and stores never touch positions >= i+4 (w <= i always), so later
/// groups read untouched input.
template <class Pred>
__attribute__((target("avx2"))) inline void compact_columns_avx2(RecordBatch& batch,
                                                                 Pred& keep_row) {
  static_assert(std::is_trivially_copyable_v<SimTime> && sizeof(SimTime) == 8);
  static_assert(std::is_trivially_copyable_v<Bytes> && sizeof(Bytes) == 8);
  const std::size_t n = batch.size();
  SimTime* t = batch.event_times().data();
  std::uint64_t* k = batch.keys().data();
  double* v = batch.values().data();
  Bytes* wire = batch.wire_sizes().data();
  const CompactLut& lut = compact_lut();
  __m256i acc = _mm256_setzero_si256();
  std::size_t w = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    unsigned m = 0;
    m |= static_cast<unsigned>(keep_row(i));
    m |= static_cast<unsigned>(keep_row(i + 1)) << 1;
    m |= static_cast<unsigned>(keep_row(i + 2)) << 2;
    m |= static_cast<unsigned>(keep_row(i + 3)) << 3;
    const __m256i perm =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(lut.perm[m]));
    const __m256i tv = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t + i)), perm);
    const __m256i kv = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(k + i)), perm);
    const __m256i vv = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i)), perm);
    const __m256i wv = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wire + i)), perm);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + w), tv);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(k + w), kv);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(v + w), vv);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(wire + w), wv);
    const auto c = static_cast<unsigned>(__builtin_popcount(m));
    acc = _mm256_add_epi64(
        acc, _mm256_and_si256(
                 wv, _mm256_load_si256(
                         reinterpret_cast<const __m256i*>(lut.head[c]))));
    w += c;
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  compact_rows(batch, i, w, lanes[0] + lanes[1] + lanes[2] + lanes[3], keep_row);
}
#endif  // SAGE_COMPACT_AVX2

/// Shared single-pass compaction: `keep_row(i)` decides row i's fate, all
/// four columns move in the same pass — one predicate evaluation per row —
/// and the wire-byte total is re-summed from the survivors as they land.
/// On AVX2 hardware batches of 8 rows or more take the branchless body
/// above; both paths produce identical batches and identical wire totals
/// (CompactColumnsTest holds them to each other).
template <class Pred>
inline void compact_columns(RecordBatch& batch, Pred keep_row) {
#ifdef SAGE_COMPACT_AVX2
  if (batch.size() >= 8 && avx2_available()) {
    compact_columns_avx2(batch, keep_row);
    return;
  }
#endif
  compact_rows(batch, 0, 0, 0, keep_row);
}

}  // namespace detail

/// Generic filter kernel: the predicate sees whole records (gathered per
/// row), columns compact in a single branchless pass.
template <class F>
BatchApplyFn make_filter_kernel(F f) {
  return [f = std::move(f)](RecordBatch& batch) {
    detail::compact_columns(batch, [&](std::size_t i) { return f(batch.row(i)); });
  };
}

/// Value filter `double -> bool`: the predicate reads the value column
/// directly — no Record is materialized.
template <class F>
BatchApplyFn make_value_filter_kernel(F f) {
  return [f = std::move(f)](RecordBatch& batch) {
    const double* v = batch.values().data();
    detail::compact_columns(batch, [&](std::size_t i) { return f(v[i]); });
  };
}

/// Key filter `uint64 -> bool`: the predicate reads the key column alone.
template <class F>
BatchApplyFn make_key_filter_kernel(F f) {
  return [f = std::move(f)](RecordBatch& batch) {
    const std::uint64_t* k = batch.keys().data();
    detail::compact_columns(batch, [&](std::size_t i) { return f(k[i]); });
  };
}

/// How a stateless operator touches the value column: the tag its answer to
/// the value liveness pass (JobGraph::live_value_outputs) follows. Only the
/// factories that know their callable's field set a tag other than kReads.
enum class ValueUse : std::uint8_t {
  kReads,    ///< reads input values: value filters, generic maps and filters
  kCarries,  ///< key filter: values ride through untouched
  kMaps,     ///< value map: each output value depends on its input value alone
};

class Operator {
 public:
  virtual ~Operator() = default;

  /// Transform one input batch into output records (appended to `out`).
  virtual void process(int port, const RecordBatch& in, RecordBatch& out) = 0;

  /// Emit time-driven output (window closes). Default: none.
  virtual void on_timer(SimTime now, RecordBatch& out) {
    (void)now;
    (void)out;
  }

  /// Interval between on_timer calls; zero disables the timer.
  [[nodiscard]] virtual SimDuration timer_interval() const { return SimDuration::zero(); }

  /// Abstract CPU work per input record.
  [[nodiscard]] virtual double cost_per_record() const { return 1.0; }

  /// Whether this operator reads the value column of its input, given
  /// whether anything downstream reads the values it outputs. The runtime
  /// asks once per vertex at start() (JobGraph::live_value_outputs); a
  /// source none of whose consumers reads values fills its value column
  /// with `value_mean` instead of computing it. Default: yes — an operator
  /// that does not say otherwise is assumed to read values.
  [[nodiscard]] virtual bool uses_input_values(bool out_values_live) const {
    (void)out_values_live;
    return true;
  }

  [[nodiscard]] virtual std::string_view name() const = 0;
};

// ---------------------------------------------------------------------------
// Stateless operators.
// ---------------------------------------------------------------------------

/// The one stateless operator: a map or a filter. Exactly one of `map` /
/// `filter` is set (record-at-a-time semantics), and `apply` is its one
/// whole-batch pass — the column kernel where a factory lowered one,
/// otherwise the scalar closure over the concrete callable. The runtime
/// runs `apply` over each batch in place; `process` is the record-level
/// reference the tests hold it to.
class StatelessOperator final : public Operator {
 public:
  StatelessOperator(std::string name, MapFn map, FilterPred filter, BatchApplyFn apply,
                    double cost, ValueUse values = ValueUse::kReads);

  /// Row-at-a-time reference: each record runs through `map` or `filter`
  /// and survivors append to `out`. The runtime never calls it.
  void process(int port, const RecordBatch& in, RecordBatch& out) override;
  [[nodiscard]] double cost_per_record() const override { return cost_; }
  /// Yes when the operator reads values (kReads); a key filter (kCarries)
  /// or a value map (kMaps) passes the downstream answer through.
  [[nodiscard]] bool uses_input_values(bool out_values_live) const override {
    return out_values_live || values_ == ValueUse::kReads;
  }
  [[nodiscard]] std::string_view name() const override { return name_; }

  /// Whether the batch pass computes nothing anyone reads: the operator is
  /// a value map and its output values are dead (`out_values_live` false).
  /// The runtime skips such a pass; the vertex keeps its simulated delay.
  [[nodiscard]] bool skips_pass(bool out_values_live) const {
    return values_ == ValueUse::kMaps && !out_values_live;
  }
  /// The batch pass, in place: a map rewrites records, a filter compacts,
  /// and either maintains the batch's wire-byte accounting.
  void apply(RecordBatch& batch) const { apply_(batch); }

 private:
  std::string name_;
  MapFn map_;
  FilterPred filter_;
  BatchApplyFn apply_;
  double cost_;
  ValueUse values_;
};

// ---------------------------------------------------------------------------
// Keyed window aggregation: tumbling and sliding.
// ---------------------------------------------------------------------------

enum class AggregateFn : std::uint8_t { kSum, kCount, kMean, kMin, kMax };

/// Per-key aggregation over processing-time windows of `window` length,
/// emitted every `slide` (slide must divide window; `slide == window` is a
/// tumbling window). Every emission holds one record per key active in the
/// window, whose value is the aggregate and whose event_time is the
/// *oldest* contributing event time (so downstream latency accounting
/// reflects the slowest member). Each key folds only what its function
/// emits; a count never reads values.
///
/// Records fold into the current slide-long pane, `state_`. A sliding
/// window keeps its window/slide − 1 older panes beside it, newest first:
/// an emission combines every pane into one map, flushes that, and the
/// current pane becomes the newest older one. So memory is O(keys × panes),
/// no record is buffered individually, and a tumbling window keeps no
/// other state.
class WindowAggregateOperator final : public Operator {
 public:
  WindowAggregateOperator(std::string name, SimDuration window, SimDuration slide,
                          AggregateFn fn, Bytes output_record_size = Bytes::of(64),
                          double cost = 2.0);

  void process(int port, const RecordBatch& in, RecordBatch& out) override;
  void on_timer(SimTime now, RecordBatch& out) override;
  [[nodiscard]] SimDuration timer_interval() const override { return slide_; }
  [[nodiscard]] double cost_per_record() const override { return cost_; }
  [[nodiscard]] bool uses_input_values(bool out_values_live) const override {
    return fn_ != AggregateFn::kCount && out_values_live;
  }
  [[nodiscard]] std::string_view name() const override { return name_; }

  /// Keys held, summed over the panes (a key in two panes counts twice).
  [[nodiscard]] std::size_t active_keys() const;

 private:
  /// `acc` is the sum (kSum, kMean; starts at 0.0, so the first value
  /// lands as 0.0 + v), the running min or max, and unused by kCount.
  struct KeyState {
    double acc = 0.0;
    std::uint64_t count = 0;
    SimTime oldest_event;
  };
  using Pane = FlatMap<KeyState>;

  template <AggregateFn F>
  void fold(const RecordBatch& in);
  /// Combine the current and older panes, newest first, into `scratch_` and
  /// swap it into `state_`; the current pane is left in `scratch_`.
  void combine_panes();
  /// Emit one record per key of `state_`, then clear it.
  void flush(RecordBatch& out);

  std::string name_;
  SimDuration slide_;
  AggregateFn fn_;
  Bytes out_size_;
  double cost_;
  Pane state_;               // the current pane
  std::vector<Pane> older_;  // window/slide − 1 older panes, newest first
  Pane scratch_;             // empty between emissions
};

// ---------------------------------------------------------------------------
// Windowed stream join.
// ---------------------------------------------------------------------------

/// Hash join of two streams on the record key over a processing-time
/// window: records from each side are buffered for `window`; a match emits
/// one record whose value combines both sides (left.value * right-weight +
/// right.value by default via the combiner).
class WindowJoinOperator final : public Operator {
 public:
  using Combiner = std::function<double(double, double)>;
  WindowJoinOperator(std::string name, SimDuration window, Combiner combiner,
                     Bytes output_record_size = Bytes::of(96), double cost = 3.0);

  void process(int port, const RecordBatch& in, RecordBatch& out) override;
  void on_timer(SimTime now, RecordBatch& out) override;
  [[nodiscard]] SimDuration timer_interval() const override { return window_ / 2.0; }
  [[nodiscard]] double cost_per_record() const override { return cost_; }
  /// Matches depend on keys alone; only the combined values read inputs.
  [[nodiscard]] bool uses_input_values(bool out_values_live) const override {
    return out_values_live;
  }
  [[nodiscard]] std::string_view name() const override { return name_; }

  [[nodiscard]] std::size_t buffered() const;

 private:
  void expire(SimTime now);

  std::string name_;
  SimDuration window_;
  Combiner combiner_;
  Bytes out_size_;
  double cost_;
  FlatMap<std::vector<Record>> left_;
  FlatMap<std::vector<Record>> right_;
  std::vector<std::uint64_t> evict_scratch_;
};

// ---------------------------------------------------------------------------
// Top-K over tumbling windows.
// ---------------------------------------------------------------------------

/// Counts (or sums values) per key over a tumbling window and emits the K
/// heaviest keys at each window close — the "trending items" primitive of
/// the clickstream scenario. Output records carry the key and its weight.
/// Ties break toward the smaller key, independent of arrival order.
class TopKOperator final : public Operator {
 public:
  TopKOperator(std::string name, SimDuration window, int k, bool sum_values = false,
               Bytes output_record_size = Bytes::of(64), double cost = 2.0);

  void process(int port, const RecordBatch& in, RecordBatch& out) override;
  void on_timer(SimTime now, RecordBatch& out) override;
  [[nodiscard]] SimDuration timer_interval() const override { return window_; }
  [[nodiscard]] double cost_per_record() const override { return cost_; }
  /// Summed values pick which keys win, whether or not the weights the
  /// output carries are read.
  [[nodiscard]] bool uses_input_values(bool out_values_live) const override {
    (void)out_values_live;
    return sum_values_;
  }
  [[nodiscard]] std::string_view name() const override { return name_; }

 private:
  struct KeyWeight {
    double weight = 0.0;
    SimTime oldest_event;
  };

  std::string name_;
  SimDuration window_;
  int k_;
  bool sum_values_;
  Bytes out_size_;
  double cost_;
  FlatMap<KeyWeight> weights_;
  std::vector<std::pair<std::uint64_t, KeyWeight>> sort_scratch_;
};

// Stateless factories. Each builds a StatelessOperator that keeps the
// record-level map / filter (the oracle) beside its batch pass. make_map /
// make_filter are templates so the concrete callable type survives into the
// batch pass (see make_map_apply / make_filter_kernel); passing a
// std::function still works, it just keeps the extra indirection. The
// value/key variants take a callable over the single field they read — the
// pass then compiles to a kernel over that one column (see
// make_value_map_kernel etc.); they are separate factories, not overloads,
// because implicit conversions make double/uint64 invocability ambiguous.
template <class F>
  requires std::is_invocable_r_v<Record, const F&, const Record&>
[[nodiscard]] std::shared_ptr<Operator> make_map(std::string name, F fn,
                                                 double cost = 1.0) {
  return std::make_shared<StatelessOperator>(std::move(name), MapFn(fn), nullptr,
                                             make_map_apply(std::move(fn)), cost);
}
template <class F>
  requires std::is_invocable_r_v<bool, const F&, const Record&>
[[nodiscard]] std::shared_ptr<Operator> make_filter(std::string name, F pred,
                                                    double cost = 0.5) {
  return std::make_shared<StatelessOperator>(std::move(name), nullptr, FilterPred(pred),
                                             make_filter_kernel(std::move(pred)), cost);
}
/// Map that rewrites only the value: `fn` is `double -> double`.
template <class F>
  requires std::is_invocable_r_v<double, const F&, double>
[[nodiscard]] std::shared_ptr<Operator> make_value_map(std::string name, F fn,
                                                       double cost = 1.0) {
  auto on_record = [fn](const Record& r) {
    Record o = r;
    o.value = fn(r.value);
    return o;
  };
  return std::make_shared<StatelessOperator>(std::move(name), MapFn(on_record), nullptr,
                                             make_value_map_kernel(std::move(fn)), cost,
                                             ValueUse::kMaps);
}
/// Filter on the value alone: `pred` is `double -> bool`.
template <class F>
  requires std::is_invocable_r_v<bool, const F&, double>
[[nodiscard]] std::shared_ptr<Operator> make_value_filter(std::string name, F pred,
                                                          double cost = 0.5) {
  auto on_record = [pred](const Record& r) { return static_cast<bool>(pred(r.value)); };
  return std::make_shared<StatelessOperator>(std::move(name), nullptr,
                                             FilterPred(on_record),
                                             make_value_filter_kernel(std::move(pred)), cost);
}
/// Filter on the key alone: `pred` is `uint64 -> bool`.
template <class F>
  requires std::is_invocable_r_v<bool, const F&, std::uint64_t>
[[nodiscard]] std::shared_ptr<Operator> make_key_filter(std::string name, F pred,
                                                        double cost = 0.5) {
  auto on_record = [pred](const Record& r) { return static_cast<bool>(pred(r.key)); };
  return std::make_shared<StatelessOperator>(std::move(name), nullptr,
                                             FilterPred(on_record),
                                             make_key_filter_kernel(std::move(pred)), cost,
                                             ValueUse::kCarries);
}
[[nodiscard]] std::shared_ptr<Operator> make_window_aggregate(
    std::string name, SimDuration window, AggregateFn fn,
    Bytes output_record_size = Bytes::of(64), double cost = 2.0);
[[nodiscard]] std::shared_ptr<Operator> make_window_join(
    std::string name, SimDuration window, WindowJoinOperator::Combiner combiner,
    Bytes output_record_size = Bytes::of(96), double cost = 3.0);
[[nodiscard]] std::shared_ptr<Operator> make_sliding_window_aggregate(
    std::string name, SimDuration window, SimDuration slide, AggregateFn fn,
    Bytes output_record_size = Bytes::of(64), double cost = 2.5);
[[nodiscard]] std::shared_ptr<Operator> make_top_k(std::string name, SimDuration window,
                                                   int k, bool sum_values = false,
                                                   Bytes output_record_size = Bytes::of(64),
                                                   double cost = 2.0);

}  // namespace sage::stream
