// Operator fusion: graph-rewrite rules and the runtime equivalence
// guarantee — a fused chain must produce byte-identical sink output and
// identical timing to the same stages run as one-stage vertices (the
// executor models fused chains stage by stage precisely so that fusion is
// invisible to simulated results).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "stream/graph.hpp"
#include "stream/operator.hpp"
#include "stream/runtime.hpp"
#include "test_util.hpp"

namespace sage::stream {
namespace {

using cloud::Region;
using sage::testing::NoisyWorld;

constexpr Region kNEU = Region::kNorthEU;
constexpr Region kNUS = Region::kNorthUS;

std::shared_ptr<Operator> scale_op() {
  return make_map("scale", [](const Record& r) {
    Record o = r;
    o.value = r.value * 2.0 + 0.5;
    return o;
  });
}

std::shared_ptr<Operator> pos_filter() {
  return make_filter("pos", [](const Record& r) { return r.value > 0.0; });
}

// ---------------------------------------------------------------------------
// Graph rewriting.
// ---------------------------------------------------------------------------

TEST(FuseGraphTest, CollapsesLinearStatelessRuns) {
  JobGraph g;
  const auto src = g.add_source("s", kNEU, SourceSpec{});
  const auto a = g.add_operator("a", kNEU, scale_op());
  const auto b = g.add_operator("b", kNEU, pos_filter());
  const auto c = g.add_operator("c", kNEU, scale_op());
  const auto sink = g.add_sink("k", kNEU);
  g.connect(src, a);
  g.connect(a, b);
  g.connect(b, c);
  g.connect(c, sink);

  EXPECT_EQ(g.fuse_stateless_chains(), 2u);
  // Ids survive: the sink and the head of the chain are where they were.
  EXPECT_EQ(g.vertices().size(), 5u);
  EXPECT_EQ(g.edges().size(), 2u);
  const auto* fused = dynamic_cast<FusedStatelessChain*>(g.vertex(a).op.get());
  ASSERT_NE(fused, nullptr);
  EXPECT_EQ(fused->stage_count(), 3u);
  // Chain cost is the sum of its stages' costs (map 1.0 + filter 0.5 + map 1.0).
  EXPECT_DOUBLE_EQ(fused->cost_per_record(), 2.5);
  // The graph still validates; orphaned vertices b, c are inert.
  g.validate();
  EXPECT_TRUE(g.out_edges(b).empty());
  EXPECT_TRUE(g.out_edges(c).empty());
}

TEST(FuseGraphTest, StatefulOperatorsBreakTheChain) {
  JobGraph g;
  const auto src = g.add_source("s", kNEU, SourceSpec{});
  const auto a = g.add_operator("a", kNEU, scale_op());
  const auto w = g.add_operator("w", kNEU,
                                make_window_aggregate("sum", SimDuration::seconds(1),
                                                      AggregateFn::kSum));
  const auto b = g.add_operator("b", kNEU, scale_op());
  const auto sink = g.add_sink("k", kNEU);
  g.connect(src, a);
  g.connect(a, w);
  g.connect(w, b);
  g.connect(b, sink);
  // Nothing adjacent is stateless-stateless, so nothing fuses.
  EXPECT_EQ(g.fuse_stateless_chains(), 0u);
  EXPECT_EQ(g.edges().size(), 4u);
}

TEST(FuseGraphTest, FanOutAndFanInBlockFusion) {
  JobGraph g;
  const auto src = g.add_source("s", kNEU, SourceSpec{});
  const auto a = g.add_operator("a", kNEU, scale_op());
  const auto b = g.add_operator("b", kNEU, pos_filter());
  const auto c = g.add_operator("c", kNEU, pos_filter());
  const auto sink1 = g.add_sink("k1", kNEU);
  const auto sink2 = g.add_sink("k2", kNEU);
  g.connect(src, a);
  g.connect(a, b);  // a fans out to b and c: a->b must not fuse
  g.connect(a, c);
  g.connect(b, sink1);
  g.connect(c, sink2);
  EXPECT_EQ(g.fuse_stateless_chains(), 0u);
}

TEST(FuseGraphTest, CrossSiteEdgesNeverFuse) {
  JobGraph g;
  const auto src = g.add_source("s", kNEU, SourceSpec{});
  const auto a = g.add_operator("a", kNEU, scale_op());
  const auto b = g.add_operator("b", kNUS, pos_filter());
  const auto sink = g.add_sink("k", kNUS);
  g.connect(src, a);
  g.connect(a, b);
  g.connect(b, sink);
  EXPECT_EQ(g.fuse_stateless_chains(), 0u);
}

TEST(FusedChainTest, MatchesPerOperatorSemantics) {
  std::vector<StatelessStage> stages;
  ASSERT_TRUE(scale_op()->collect_stages(stages));
  ASSERT_TRUE(pos_filter()->collect_stages(stages));
  FusedStatelessChain chain("f", std::move(stages));

  RecordBatch in;
  for (double v : {-3.0, -0.25, 0.0, 1.0, 4.0}) {
    Record r;
    r.value = v;
    r.wire_size = Bytes::of(64);
    in.add(r);
  }
  // Reference: run each one-stage chain row at a time.
  RecordBatch mid;
  RecordBatch want;
  scale_op()->process(0, in, mid);
  pos_filter()->process(0, mid, want);

  RecordBatch got_copy;
  chain.process(0, in, got_copy);
  // The runtime's stage loop over one buffer.
  RecordBatch got_staged = in;
  for (std::size_t s = 0; s < chain.stage_count() && !got_staged.empty(); ++s) {
    chain.apply_stage(s, got_staged);
  }

  for (const RecordBatch* got : {&got_copy, &got_staged}) {
    ASSERT_EQ(got->size(), want.size());
    EXPECT_EQ(got->wire_size(), want.wire_size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_DOUBLE_EQ(got->row(i).value, want.row(i).value);
    }
  }
}

// ---------------------------------------------------------------------------
// Runtime equivalence: a fused chain and the same stages run as separate
// one-stage vertices must be indistinguishable at the sink — identical
// record streams, identical timing — even with CPU-factor noise active. The
// pipeline is deliberately underloaded: head-of-line batch overlap is the
// one regime where fusion may reorder work.
// ---------------------------------------------------------------------------

struct SinkCapture {
  std::vector<Record> records;
};

struct PipelineRun {
  std::size_t head_stages = 0;  // stages of the chain vertex `a` runs
  std::uint64_t records = 0;
  Bytes bytes;
  std::vector<double> latency_ms;
  std::vector<Record> captured;
};

/// Never used: the job is single-site.
struct NeverBackend final : TransferBackend {
  void send(Region, Region, Bytes, DoneFn) override { FAIL() << "unexpected WAN send"; }
  [[nodiscard]] std::string_view name() const override { return "never"; }
};

/// s -> a (map) -> b (filter) -> c (tap map) -> k. As built, a, b and c
/// fuse into one three-stage chain. With `split`, extra sinks hang off a and
/// b; with two out-edges each, nothing fuses and every stage runs as its own
/// one-stage vertex.
PipelineRun run_pipeline(bool split) {
  NoisyWorld world(/*seed=*/7);
  SinkCapture capture;

  JobGraph g;
  SourceSpec spec;
  spec.records_per_sec = 2000.0;
  spec.key_count = 64;
  spec.key_skew = 1.1;
  spec.value_stddev = 2.0;
  const auto src = g.add_source("s", kNEU, spec);
  const auto a = g.add_operator("a", kNEU, scale_op());
  const auto b = g.add_operator("b", kNEU, pos_filter());
  const auto c = g.add_operator("c", kNEU, make_map("tap", [&capture](const Record& r) {
                                  capture.records.push_back(r);
                                  return r;
                                }));
  const auto sink = g.add_sink("k", kNEU);
  g.connect(src, a);
  g.connect(a, b);
  g.connect(b, c);
  g.connect(c, sink);
  if (split) {
    g.connect(a, g.add_sink("ka", kNEU));
    g.connect(b, g.add_sink("kb", kNEU));
  }

  NeverBackend backend;
  RuntimeConfig cfg;
  cfg.seed = 99;
  StreamRuntime runtime(*world.provider, std::move(g), backend, cfg);
  runtime.start();
  world.engine.run_until(world.engine.now() + SimDuration::seconds(10));
  runtime.stop();

  PipelineRun out;
  const auto* head =
      dynamic_cast<const FusedStatelessChain*>(runtime.graph().vertex(a).op.get());
  out.head_stages = head != nullptr ? head->stage_count() : 0;
  out.records = runtime.sink_stats(sink).records;
  out.bytes = runtime.sink_stats(sink).bytes;
  out.latency_ms = runtime.sink_stats(sink).latency_ms.values();
  out.captured = std::move(capture.records);
  return out;
}

void expect_identical(const PipelineRun& x, const PipelineRun& y) {
  EXPECT_EQ(x.records, y.records);
  EXPECT_EQ(x.bytes, y.bytes);
  // Timing must match exactly (not approximately): the stage-wise executor
  // charges each stage the delay its own one-stage vertex would pay.
  ASSERT_EQ(x.latency_ms.size(), y.latency_ms.size());
  for (std::size_t i = 0; i < x.latency_ms.size(); ++i) {
    ASSERT_EQ(x.latency_ms[i], y.latency_ms[i]) << "latency sample " << i;
  }
  ASSERT_EQ(x.captured.size(), y.captured.size());
  for (std::size_t i = 0; i < x.captured.size(); ++i) {
    const Record& r = x.captured[i];
    const Record& s = y.captured[i];
    ASSERT_EQ(r.event_time, s.event_time) << "record " << i;
    ASSERT_EQ(r.key, s.key) << "record " << i;
    ASSERT_EQ(r.value, s.value) << "record " << i;
    ASSERT_EQ(r.wire_size, s.wire_size) << "record " << i;
  }
}

TEST(FusionEquivalenceTest, FusedMatchesUnfusedExactly) {
  const PipelineRun unfused = run_pipeline(/*split=*/true);
  const PipelineRun fused = run_pipeline(/*split=*/false);
  ASSERT_EQ(unfused.head_stages, 1u);
  ASSERT_EQ(fused.head_stages, 3u);
  ASSERT_GT(unfused.records, 0u);
  ASSERT_GT(unfused.captured.size(), 0u);
  expect_identical(unfused, fused);
}

TEST(FusionEquivalenceTest, FusedRunsAreDeterministic) {
  const PipelineRun first = run_pipeline(/*split=*/false);
  const PipelineRun second = run_pipeline(/*split=*/false);
  ASSERT_GT(first.records, 0u);
  expect_identical(first, second);
}

// Row-at-a-time oracle: stage `s` applied to `in` one materialized record at
// a time through its record-level map / filter.
RecordBatch row_at_a_time(const StatelessStage& s, const RecordBatch& in) {
  RecordBatch out;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const Record r = in.row(i);
    if (s.map) {
      out.add(s.map(r));
    } else if (s.filter(r)) {
      out.add(r);
    }
  }
  return out;
}

// Every stage's batch pass — the column kernels the value/key factories and
// generic filters lower to, and the scalar closure of a generic map —
// computes the same survivors, values and wire accounting as the stage's
// own map / filter run row by row.
TEST(FusedChainTest, BatchPassesMatchRowAtATimeOracle) {
  std::vector<StatelessStage> stages;
  ASSERT_TRUE(make_value_map("scale", [](double v) { return v * 1.5 + 0.25; })
                  ->collect_stages(stages));
  ASSERT_TRUE(make_value_filter("pos", [](double v) { return v > -1.0; })
                  ->collect_stages(stages));
  ASSERT_TRUE(make_key_filter("mod", [](std::uint64_t k) { return k % 3 != 0; })
                  ->collect_stages(stages));
  ASSERT_TRUE(make_map("resize", [](const Record& r) {
                Record o = r;
                o.wire_size = Bytes::of(r.wire_size.count() / 2 + 16);
                return o;
              })->collect_stages(stages));
  ASSERT_TRUE(make_filter("even", [](const Record& r) {
                return r.wire_size.count() % 2 == 0;
              })->collect_stages(stages));
  const std::vector<StatelessStage> oracle = stages;
  FusedStatelessChain chain("f", std::move(stages));

  // 37 rows: several full 4-wide compaction groups plus a scalar tail.
  RecordBatch batch;
  for (int i = 0; i < 37; ++i) {
    Record r;
    r.event_time = SimTime::epoch() + SimDuration::millis(i);
    r.key = static_cast<std::uint64_t>(i * 7 % 11);
    r.value = static_cast<double>(i) - 16.0;
    r.wire_size = Bytes::of(48 + i);
    batch.add(r);
  }
  for (std::size_t s = 0; s < chain.stage_count(); ++s) {
    const RecordBatch want = row_at_a_time(oracle[s], batch);
    chain.apply_stage(s, batch);
    ASSERT_EQ(batch.size(), want.size()) << "stage " << s;
    EXPECT_EQ(batch.wire_size(), want.wire_size()) << "stage " << s;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const Record a = batch.row(i);
      const Record b = want.row(i);
      ASSERT_EQ(a.event_time, b.event_time) << "stage " << s << " row " << i;
      ASSERT_EQ(a.key, b.key) << "stage " << s << " row " << i;
      ASSERT_EQ(a.value, b.value) << "stage " << s << " row " << i;
      ASSERT_EQ(a.wire_size, b.wire_size) << "stage " << s << " row " << i;
    }
  }
  EXPECT_FALSE(batch.empty());
}

// On an AVX2 host detail::compact_columns runs the scalar loop only below 8
// rows and in the AVX2 body's tail, yet the scalar loop is the whole pass on
// every other host. Hold both paths, at every size from 0 to 67 and keep
// rates from none to all, on random columns and wire sizes, to the survivors
// in order with their exact wire total.
TEST(CompactColumnsTest, ScalarAndAvx2PathsKeepTheSameRows) {
#ifndef SAGE_COMPACT_AVX2
  GTEST_SKIP() << "this build has no AVX2 compaction path";
#else
  if (!detail::avx2_available()) GTEST_SKIP() << "this host has no AVX2";
  Rng rng(67);
  for (std::int64_t keep_pct : {0, 10, 25, 50, 75, 90, 100}) {
    for (std::size_t n = 0; n < 68; ++n) {
      RecordBatch batch;
      RecordBatch want;
      std::vector<bool> keep(n);
      for (std::size_t i = 0; i < n; ++i) {
        const Record r{SimTime::from_micros(rng.uniform_int(0, 1'000'000)), rng.next_u64(),
                       rng.uniform(-1e3, 1e3), Bytes::of(rng.uniform_int(1, 4096))};
        batch.add(r);
        keep[i] = rng.uniform_int(0, 99) < keep_pct;
        if (keep[i]) want.add(r);
      }
      const auto keep_row = [&](std::size_t i) { return static_cast<bool>(keep[i]); };
      RecordBatch scalar = batch;
      detail::compact_rows(scalar, 0, 0, 0, keep_row);
      RecordBatch avx2 = batch;
      detail::compact_columns_avx2(avx2, keep_row);
      for (const RecordBatch* got : {&scalar, &avx2}) {
        const char* path = got == &scalar ? "scalar" : "avx2";
        ASSERT_EQ(got->event_times(), want.event_times()) << path << " n=" << n;
        ASSERT_EQ(got->keys(), want.keys()) << path << " n=" << n;
        ASSERT_EQ(got->values(), want.values()) << path << " n=" << n;
        ASSERT_EQ(got->wire_sizes(), want.wire_sizes()) << path << " n=" << n;
        ASSERT_EQ(got->wire_size(), want.wire_size()) << path << " n=" << n;
      }
    }
  }
#endif
}

}  // namespace
}  // namespace sage::stream
