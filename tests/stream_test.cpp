// Tests for the streaming layer: operators, job graphs, and the single-site
// runtime behaviour (queueing, windows, latency accounting).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "stream/graph.hpp"
#include "stream/operator.hpp"
#include "stream/runtime.hpp"
#include "test_util.hpp"

namespace sage::stream {
namespace {

using cloud::Region;
using sage::testing::NoisyWorld;
using sage::testing::StableWorld;

constexpr Region kNEU = Region::kNorthEU;
constexpr Region kNUS = Region::kNorthUS;

Record make_record(double value, std::uint64_t key = 0,
                   SimTime t = SimTime::epoch()) {
  Record r;
  r.event_time = t;
  r.key = key;
  r.value = value;
  r.wire_size = Bytes::of(100);
  return r;
}

TEST(RecordBatchTest, TracksSizeAndBytes) {
  RecordBatch b;
  EXPECT_TRUE(b.empty());
  b.add(make_record(1.0));
  b.add(make_record(2.0));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.wire_size(), Bytes::of(200));
  RecordBatch c;
  c.add(make_record(3.0));
  b.append(c);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.wire_size(), Bytes::of(300));
  b.clear();
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(b.wire_size().is_zero());
}

TEST(MapStageTest, TransformsEveryRecord) {
  auto op = make_map("double", [](const Record& r) {
    Record out = r;
    out.value = r.value * 2.0;
    return out;
  });
  RecordBatch in;
  in.add(make_record(1.0));
  in.add(make_record(2.5));
  RecordBatch out;
  op->process(0, in, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out.row(0).value, 2.0);
  EXPECT_DOUBLE_EQ(out.row(1).value, 5.0);
}

TEST(FilterStageTest, DropsNonMatching) {
  auto op = make_filter("pos", [](const Record& r) { return r.value > 0.0; });
  RecordBatch in;
  in.add(make_record(1.0));
  in.add(make_record(-1.0));
  in.add(make_record(2.0));
  RecordBatch out;
  op->process(0, in, out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(WindowAggregateTest, EmitsPerKeyAggregatesOnTimer) {
  WindowAggregateOperator op("sum", SimDuration::seconds(10), SimDuration::seconds(10),
                             AggregateFn::kSum);
  RecordBatch in;
  in.add(make_record(1.0, /*key=*/1));
  in.add(make_record(2.0, /*key=*/1));
  in.add(make_record(5.0, /*key=*/2));
  RecordBatch none;
  op.process(0, in, none);
  EXPECT_TRUE(none.empty());  // nothing emitted before the window closes
  EXPECT_EQ(op.active_keys(), 2u);

  RecordBatch out;
  op.on_timer(SimTime::epoch() + SimDuration::seconds(10), out);
  ASSERT_EQ(out.size(), 2u);
  double sum1 = 0.0;
  double sum2 = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Record r = out.row(i);
    if (r.key == 1) sum1 = r.value;
    if (r.key == 2) sum2 = r.value;
  }
  EXPECT_DOUBLE_EQ(sum1, 3.0);
  EXPECT_DOUBLE_EQ(sum2, 5.0);
  EXPECT_EQ(op.active_keys(), 0u);  // window state flushed
}

TEST(WindowAggregateTest, AllAggregateFunctions) {
  const std::vector<double> values = {2.0, 8.0, 4.0};
  auto run = [&](AggregateFn fn) {
    WindowAggregateOperator op("agg", SimDuration::seconds(1), SimDuration::seconds(1), fn);
    RecordBatch in;
    for (double v : values) in.add(make_record(v, 7));
    RecordBatch none;
    op.process(0, in, none);
    RecordBatch out;
    op.on_timer(SimTime::epoch() + SimDuration::seconds(1), out);
    EXPECT_EQ(out.size(), 1u);
    return out.row(0).value;
  };
  EXPECT_DOUBLE_EQ(run(AggregateFn::kSum), 14.0);
  EXPECT_DOUBLE_EQ(run(AggregateFn::kCount), 3.0);
  EXPECT_DOUBLE_EQ(run(AggregateFn::kMean), 14.0 / 3.0);
  EXPECT_DOUBLE_EQ(run(AggregateFn::kMin), 2.0);
  EXPECT_DOUBLE_EQ(run(AggregateFn::kMax), 8.0);
}

TEST(WindowAggregateTest, SumsStartFromPositiveZero) {
  // A sum folds 0.0 + v, so a lone -0.0 emits +0.0; min and max return
  // the value itself.
  auto run = [](AggregateFn fn) {
    WindowAggregateOperator op("agg", SimDuration::seconds(1), SimDuration::seconds(1), fn);
    RecordBatch in;
    in.add(make_record(-0.0, 7));
    RecordBatch none;
    op.process(0, in, none);
    RecordBatch out;
    op.on_timer(SimTime::epoch() + SimDuration::seconds(1), out);
    EXPECT_EQ(out.size(), 1u);
    return std::signbit(out.row(0).value);
  };
  EXPECT_FALSE(run(AggregateFn::kSum));
  EXPECT_FALSE(run(AggregateFn::kMean));
  EXPECT_TRUE(run(AggregateFn::kMin));
  EXPECT_TRUE(run(AggregateFn::kMax));
}

TEST(WindowAggregateTest, OutputCarriesOldestEventTime) {
  WindowAggregateOperator op("sum", SimDuration::seconds(10), SimDuration::seconds(10),
                             AggregateFn::kSum);
  RecordBatch in;
  in.add(make_record(1.0, 1, SimTime::epoch() + SimDuration::seconds(5)));
  in.add(make_record(1.0, 1, SimTime::epoch() + SimDuration::seconds(2)));
  RecordBatch none;
  op.process(0, in, none);
  RecordBatch out;
  op.on_timer(SimTime::epoch() + SimDuration::seconds(10), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.row(0).event_time, SimTime::epoch() + SimDuration::seconds(2));
}

TEST(WindowJoinTest, MatchesAcrossPorts) {
  WindowJoinOperator op("join", SimDuration::seconds(30),
                        [](double l, double r) { return l + r; });
  RecordBatch left;
  left.add(make_record(1.0, 42));
  RecordBatch out;
  op.process(0, left, out);
  EXPECT_TRUE(out.empty());  // no right side yet
  RecordBatch right;
  right.add(make_record(10.0, 42));
  right.add(make_record(10.0, 99));  // unmatched key
  op.process(1, right, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out.row(0).value, 11.0);
  EXPECT_EQ(out.row(0).key, 42u);
}

TEST(WindowJoinTest, TimerExpiresOldState) {
  WindowJoinOperator op("join", SimDuration::seconds(10),
                        [](double l, double r) { return l + r; });
  RecordBatch left;
  left.add(make_record(1.0, 1, SimTime::epoch()));
  RecordBatch out;
  op.process(0, left, out);
  EXPECT_EQ(op.buffered(), 1u);
  op.on_timer(SimTime::epoch() + SimDuration::seconds(60), out);
  EXPECT_EQ(op.buffered(), 0u);
  // A late right-side record no longer matches.
  RecordBatch right;
  right.add(make_record(2.0, 1, SimTime::epoch() + SimDuration::seconds(60)));
  op.process(1, right, out);
  EXPECT_TRUE(out.empty());
}

TEST(RecordBatchTest, MoveAppendStealsOrCopies) {
  // Steal path: appending into an empty batch swaps column buffers.
  RecordBatch a;
  a.add(make_record(1.0));
  a.add(make_record(2.0));
  const double* old_data = a.values().data();
  RecordBatch b;
  b.append(std::move(a));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.wire_size(), Bytes::of(200));
  EXPECT_EQ(b.values().data(), old_data);
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(a.wire_size().is_zero());

  // Copy path: appending into a non-empty batch keeps the destination
  // buffer and still clears the source — which must RETAIN its capacity so
  // the runtime can recycle it into the batch pool.
  RecordBatch c;
  c.add(make_record(3.0));
  c.append(std::move(b));
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.wire_size(), Bytes::of(300));
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(b.wire_size().is_zero());
  EXPECT_GT(b.capacity(), 0u);
}

TEST(RecordBatchTest, MoveAppendLeavesSourceRecyclable) {
  // The steal path hands the source this batch's old buffers: move-append
  // a full batch into an empty-but-reserved one and the full batch should
  // come back holding the reserved capacity, not zero.
  RecordBatch pooled;
  pooled.reserve(64);
  RecordBatch incoming;
  incoming.add(make_record(1.0));
  pooled.append(std::move(incoming));
  EXPECT_EQ(pooled.size(), 1u);
  EXPECT_TRUE(incoming.empty());
  EXPECT_GE(incoming.capacity(), 64u);
}

// ---------------------------------------------------------------------------
// Edge cases: empty batches and timers that fire before any data.
// ---------------------------------------------------------------------------

TEST(OperatorEdgeCaseTest, EmptyInputBatchIsHarmless) {
  const RecordBatch empty;
  auto check = [&](const std::shared_ptr<Operator>& op) {
    RecordBatch out;
    op->process(0, empty, out);
    EXPECT_TRUE(out.empty()) << op->name();
    // The runtime runs a stateless operator's own batch pass in place.
    if (const auto* stateless = dynamic_cast<const StatelessOperator*>(op.get())) {
      RecordBatch applied;
      stateless->apply(applied);
      EXPECT_TRUE(applied.empty()) << op->name();
      EXPECT_TRUE(applied.wire_size().is_zero()) << op->name();
    }
  };
  check(make_map("m", [](const Record& r) { return r; }));
  check(make_filter("f", [](const Record&) { return true; }));
  check(make_value_map("vm", [](double v) { return v + 1.0; }));
  check(make_value_filter("vf", [](double v) { return v > 0.0; }));
  check(make_key_filter("kf", [](std::uint64_t k) { return k % 2 == 0; }));
  check(make_window_aggregate("w", SimDuration::seconds(1), AggregateFn::kSum));
  check(make_window_join("j", SimDuration::seconds(1),
                         [](double l, double r) { return l + r; }));
  check(make_sliding_window_aggregate("s", SimDuration::seconds(4),
                                      SimDuration::seconds(1), AggregateFn::kMax));
  check(make_top_k("t", SimDuration::seconds(1), 3));
}

TEST(OperatorEdgeCaseTest, TimerBeforeAnyDataEmitsNothing) {
  const SimTime later = SimTime::epoch() + SimDuration::seconds(30);
  for (const auto& op :
       {make_window_aggregate("w", SimDuration::seconds(1), AggregateFn::kSum),
        make_window_join("j", SimDuration::seconds(1),
                         [](double l, double r) { return l + r; }),
        make_sliding_window_aggregate("s", SimDuration::seconds(4),
                                      SimDuration::seconds(1), AggregateFn::kMin),
        make_top_k("t", SimDuration::seconds(1), 3)}) {
    RecordBatch out;
    op->on_timer(later, out);
    EXPECT_TRUE(out.empty()) << op->name();
  }
}

TEST(TopKTest, TieBreaksTowardSmallerKeyRegardlessOfArrivalOrder) {
  // Three keys with identical weights, fed in descending key order; k=2
  // must still pick the two smallest keys.
  TopKOperator op("top", SimDuration::seconds(10), /*k=*/2);
  RecordBatch in;
  for (std::uint64_t key : {9u, 5u, 2u}) {
    in.add(make_record(1.0, key));
    in.add(make_record(1.0, key));
  }
  RecordBatch none;
  op.process(0, in, none);
  EXPECT_TRUE(none.empty());
  RecordBatch out;
  op.on_timer(SimTime::epoch() + SimDuration::seconds(10), out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.row(0).key, 2u);
  EXPECT_EQ(out.row(1).key, 5u);
  EXPECT_DOUBLE_EQ(out.row(0).value, 2.0);  // count of key 2

  // Same weights arriving in ascending order give the identical result.
  TopKOperator op2("top", SimDuration::seconds(10), /*k=*/2);
  RecordBatch in2;
  for (std::uint64_t key : {2u, 5u, 9u}) {
    in2.add(make_record(1.0, key));
    in2.add(make_record(1.0, key));
  }
  op2.process(0, in2, none);
  RecordBatch out2;
  op2.on_timer(SimTime::epoch() + SimDuration::seconds(10), out2);
  ASSERT_EQ(out2.size(), 2u);
  EXPECT_EQ(out2.row(0).key, 2u);
  EXPECT_EQ(out2.row(1).key, 5u);
}

// ---------------------------------------------------------------------------
// Graph construction and validation.
// ---------------------------------------------------------------------------

TEST(JobGraphTest, BuildAndInspect) {
  JobGraph g;
  const auto src = g.add_source("s", kNEU, SourceSpec{});
  const auto op = g.add_operator("f", kNEU, make_filter("f", [](const Record&) {
    return true;
  }));
  const auto sink = g.add_sink("k", kNUS);
  g.connect(src, op);
  g.connect(op, sink);
  g.validate();
  EXPECT_EQ(g.vertices().size(), 3u);
  ASSERT_EQ(g.edges().size(), 2u);
  EXPECT_EQ(g.edges()[0].from, src);
  EXPECT_EQ(g.edges()[0].to, op);
  EXPECT_EQ(g.wan_edges().size(), 1u);  // op(NEU) -> sink(NUS)
  const auto sites = g.sites_used();
  EXPECT_EQ(sites.size(), 2u);
}

TEST(JobGraphTest, ValidateRejectsCycles) {
  JobGraph g;
  const auto a = g.add_operator("a", kNEU, make_filter("a", [](const Record&) {
    return true;
  }));
  const auto b = g.add_operator("b", kNEU, make_filter("b", [](const Record&) {
    return true;
  }));
  g.connect(a, b);
  g.connect(b, a);
  EXPECT_THROW(g.validate(), CheckFailure);
}

TEST(JobGraphTest, ValidateRejectsEdgesIntoSources) {
  JobGraph g;
  const auto s = g.add_source("s", kNEU, SourceSpec{});
  const auto op = g.add_operator("o", kNEU, make_filter("o", [](const Record&) {
    return true;
  }));
  g.connect(op, s);
  EXPECT_THROW(g.validate(), CheckFailure);
}

TEST(JobGraphTest, ValidateRejectsPortOneOnNonJoin) {
  JobGraph g;
  const auto s = g.add_source("s", kNEU, SourceSpec{});
  const auto op = g.add_operator("o", kNEU, make_filter("o", [](const Record&) {
    return true;
  }));
  g.connect(s, op, /*port=*/1);
  EXPECT_THROW(g.validate(), CheckFailure);
}

TEST(JobGraphTest, ValidateRejectsDuplicateNames) {
  // Per-vertex and per-edge obs cells key on the vertex name, so two
  // vertices sharing one would sum into a single cell.
  const auto two_sources = [](const std::string& second) {
    JobGraph g;
    const auto s1 = g.add_source("events", kNEU, SourceSpec{});
    const auto s2 = g.add_source(second, kNUS, SourceSpec{});
    const auto sink = g.add_sink("k", kNEU);
    g.connect(s1, sink);
    g.connect(s2, sink);
    return g;
  };
  EXPECT_THROW(two_sources("events").validate(), CheckFailure);
  EXPECT_NO_THROW(two_sources("events@NUS").validate());
}

TEST(JobGraphTest, PortOneValidOnJoin) {
  JobGraph g;
  const auto s1 = g.add_source("s1", kNEU, SourceSpec{});
  const auto s2 = g.add_source("s2", kNEU, SourceSpec{});
  const auto j = g.add_operator(
      "j", kNEU, make_window_join("j", SimDuration::seconds(10),
                                  [](double l, double r) { return l * r; }));
  const auto sink = g.add_sink("k", kNEU);
  g.connect(s1, j, 0);
  g.connect(s2, j, 1);
  g.connect(j, sink);
  EXPECT_NO_THROW(g.validate());
}

// ---------------------------------------------------------------------------
// Value liveness: which sources must draw their values.
// ---------------------------------------------------------------------------

/// An operator that says nothing about values: the liveness pass must take
/// it for a reader.
class OpaqueOperator final : public Operator {
 public:
  void process(int, const RecordBatch& in, RecordBatch& out) override { out.append(in); }
  [[nodiscard]] std::string_view name() const override { return "opaque"; }
};

std::shared_ptr<Operator> drop_key_mod3(const std::string& name) {
  return make_key_filter(name, [](std::uint64_t k) { return k % 3 != 0; });
}
std::shared_ptr<Operator> affine(const std::string& name) {
  return make_value_map(name, [](double v) { return 2.0 * v + 1.0; });
}
std::shared_ptr<Operator> window(const std::string& name, AggregateFn fn) {
  return make_window_aggregate(name, SimDuration::seconds(5), fn);
}
std::shared_ptr<Operator> top_k(const std::string& name, bool sum_values) {
  return make_top_k(name, SimDuration::seconds(10), 5, sum_values);
}

/// source -> ops... -> sink, all on one site.
JobGraph pipeline(const std::vector<std::shared_ptr<Operator>>& ops) {
  JobGraph g;
  VertexId prev = g.add_source("s", kNEU, SourceSpec{});
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const VertexId v = g.add_operator("op" + std::to_string(i), kNEU, ops[i]);
    g.connect(prev, v);
    prev = v;
  }
  g.connect(prev, g.add_sink("k", kNEU));
  return g;
}

TEST(ValueLivenessTest, SourceVerdictPerGraphShape) {
  struct Case {
    const char* shape;
    std::function<JobGraph()> build;
    bool live;  // the verdict for every source of the graph
  };
  const std::vector<Case> cases = {
      // Dead: no consumer reads what the sources draw.
      {"geo-stream: key filter, value map, count ->WAN-> top-k(sum) -> sink",
       [] {
         JobGraph g;
         const VertexId topk = g.add_operator("topk", kNUS, top_k("topk", true));
         g.connect(topk, g.add_sink("k", kNUS));
         for (const Region site : {kNEU, Region::kWestEU}) {
           const std::string tag(cloud::region_code(site));
           SourceSpec spec;
           spec.key_count = 20000;
           spec.key_skew = 1.1;
           const VertexId src = g.add_source("s" + tag, site, spec);
           const VertexId bots = g.add_operator("bots" + tag, site, drop_key_mod3("bots"));
           const VertexId score = g.add_operator("score" + tag, site, affine("score"));
           const VertexId count =
               g.add_operator("count" + tag, site, window("count", AggregateFn::kCount));
           g.connect(src, bots);
           g.connect(bots, score);
           g.connect(score, count);
           g.connect(count, topk);
         }
         return g;
       },
       false},
      {"fig4: key filter ->WAN-> count -> sink",
       [] {
         JobGraph g;
         const VertexId src = g.add_source("s", kNEU, SourceSpec{});
         const VertexId clean = g.add_operator("clean", kNEU, drop_key_mod3("clean"));
         const VertexId count =
             g.add_operator("count", kNUS, window("count", AggregateFn::kCount));
         g.connect(src, clean);
         g.connect(clean, count);
         g.connect(count, g.add_sink("k", kNUS));
         return g;
       },
       false},
      {"mean -> mean -> sink",
       [] {
         return pipeline({window("m1", AggregateFn::kMean), window("m2", AggregateFn::kMean)});
       },
       false},
      {"join -> sink",
       [] {
         JobGraph g;
         const VertexId s1 = g.add_source("s1", kNEU, SourceSpec{});
         const VertexId s2 = g.add_source("s2", kNEU, SourceSpec{});
         const VertexId j = g.add_operator(
             "j", kNEU, make_window_join("j", SimDuration::seconds(10),
                                         [](double l, double r) { return l * r; }));
         g.connect(s1, j, 0);
         g.connect(s2, j, 1);
         g.connect(j, g.add_sink("k", kNEU));
         return g;
       },
       false},
      {"top-k without sum_values", [] { return pipeline({top_k("t", false)}); }, false},
      // Live: some consumer reads the values.
      {"value filter behind key filters and value maps",
       [] {
         return pipeline({drop_key_mod3("b1"), affine("a1"), drop_key_mod3("b2"), affine("a2"),
                          make_value_filter("pos", [](double v) { return v > 0.0; }),
                          window("count", AggregateFn::kCount)});
       },
       true},
      {"top-k(sum) fed straight by the source", [] { return pipeline({top_k("t", true)}); },
       true},
      {"generic make_map",
       [] {
         return pipeline({make_map("id", [](const Record& r) { return r; }),
                          window("count", AggregateFn::kCount)});
       },
       true},
      {"generic make_filter",
       [] {
         return pipeline({make_filter("all", [](const Record&) { return true; }),
                          window("count", AggregateFn::kCount)});
       },
       true},
      {"operator without an override",
       [] {
         return pipeline(
             {std::make_shared<OpaqueOperator>(), window("count", AggregateFn::kCount)});
       },
       true},
      {"fan-out to one dead and one live consumer",
       [] {
         JobGraph g;
         const VertexId src = g.add_source("s", kNEU, SourceSpec{});
         const VertexId count = g.add_operator("count", kNEU, window("count", AggregateFn::kCount));
         const VertexId sum = g.add_operator("sum", kNEU, window("sum", AggregateFn::kSum));
         const VertexId total = g.add_operator("total", kNEU, top_k("total", true));
         g.connect(src, count);
         g.connect(src, sum);
         g.connect(count, g.add_sink("k1", kNEU));
         g.connect(sum, total);
         g.connect(total, g.add_sink("k2", kNEU));
         return g;
       },
       true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.shape);
    const JobGraph g = c.build();
    g.validate();
    const std::vector<bool> live = g.live_value_outputs();
    ASSERT_EQ(live.size(), g.vertices().size());
    int sources = 0;
    for (const Vertex& v : g.vertices()) {
      if (v.kind != VertexKind::kSource) continue;
      EXPECT_EQ(live[v.id], c.live) << v.name;
      ++sources;
    }
    EXPECT_GT(sources, 0);
  }
}

TEST(ValueLivenessTest, ChainSkipsOnlyValueMapsNobodyReads) {
  // s -> b -> a1 -> pos -> a2 -> c -> k: a1 feeds the value filter, while
  // a2's values reach only a key filter and the sink.
  const JobGraph g =
      pipeline({drop_key_mod3("b"), affine("a1"),
                make_value_filter("pos", [](double v) { return v > 0.0; }), affine("a2"),
                drop_key_mod3("c")});
  const std::vector<bool> live = g.live_value_outputs();
  std::vector<bool> skips;
  std::vector<bool> skips_if_read;
  for (const Vertex& v : g.vertices()) {
    if (v.kind != VertexKind::kOperator) continue;
    const auto* op = dynamic_cast<const StatelessOperator*>(v.op.get());
    ASSERT_NE(op, nullptr) << v.name;
    skips.push_back(op->skips_pass(live[v.id]));
    skips_if_read.push_back(op->skips_pass(true));
  }
  EXPECT_EQ(skips, (std::vector<bool>{false, false, false, true, false}));
  EXPECT_EQ(skips_if_read, std::vector<bool>(5, false));
  EXPECT_TRUE(live[0]);  // the value filter reads what the source draws
  // Key filters and value maps pass the downstream answer through.
  for (const auto& op : {drop_key_mod3("b"), affine("a")}) {
    EXPECT_FALSE(op->uses_input_values(false)) << op->name();
    EXPECT_TRUE(op->uses_input_values(true)) << op->name();
  }
}

// ---------------------------------------------------------------------------
// Batch passes against the record-level oracle.
// ---------------------------------------------------------------------------

// Every operator's batch pass — the column kernels the value/key factories
// and generic filters lower to, and the scalar closure of a generic map —
// computes the same survivors, values and wire accounting as the
// operator's own record-level `process`, run row by row.
TEST(StatelessOperatorTest, BatchPassesMatchRowAtATimeOracle) {
  const std::vector<std::shared_ptr<Operator>> ops = {
      make_value_map("scale", [](double v) { return v * 1.5 + 0.25; }),
      make_value_filter("pos", [](double v) { return v > -1.0; }),
      make_key_filter("mod", [](std::uint64_t k) { return k % 3 != 0; }),
      make_map("resize",
               [](const Record& r) {
                 Record o = r;
                 o.wire_size = Bytes::of(r.wire_size.count() / 2 + 16);
                 return o;
               }),
      make_filter("even", [](const Record& r) { return r.wire_size.count() % 2 == 0; })};

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
  for (const auto& op : ops) {
    const std::string_view name = op->name();
    RecordBatch want;
    op->process(0, batch, want);
    const auto* stateless = dynamic_cast<const StatelessOperator*>(op.get());
    ASSERT_NE(stateless, nullptr) << name;
    stateless->apply(batch);
    ASSERT_EQ(batch.size(), want.size()) << name;
    EXPECT_EQ(batch.wire_size(), want.wire_size()) << name;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const Record a = batch.row(i);
      const Record b = want.row(i);
      ASSERT_EQ(a.event_time, b.event_time) << name << " row " << i;
      ASSERT_EQ(a.key, b.key) << name << " row " << i;
      ASSERT_EQ(a.value, b.value) << name << " row " << i;
      ASSERT_EQ(a.wire_size, b.wire_size) << name << " row " << i;
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

// ---------------------------------------------------------------------------
// Single-site runtime end-to-end.
// ---------------------------------------------------------------------------

/// Backend that must never be called for a single-site job.
struct NeverBackend final : TransferBackend {
  void send(Region, Region, Bytes, DoneFn) override {
    FAIL() << "single-site job must not touch the WAN";
  }
  [[nodiscard]] std::string_view name() const override { return "never"; }
};

TEST(StreamRuntimeTest, LocalPipelineDeliversRecords) {
  StableWorld world;
  JobGraph g;
  SourceSpec spec;
  spec.records_per_sec = 1000.0;
  spec.emit_interval = SimDuration::millis(100);
  const auto src = g.add_source("s", kNEU, spec);
  const auto filter = g.add_operator(
      "f", kNEU, make_filter("f", [](const Record& r) { return r.key % 2 == 0; }));
  const auto sink = g.add_sink("k", kNEU);
  g.connect(src, filter);
  g.connect(filter, sink);

  NeverBackend backend;
  StreamRuntime runtime(*world.provider, g, backend, RuntimeConfig{});
  runtime.start();
  world.engine.run_until(world.engine.now() + SimDuration::seconds(10));
  const SinkStats& stats = runtime.sink_stats(sink);
  // ~10k records emitted, about half pass the filter.
  EXPECT_GT(stats.records, 3000u);
  EXPECT_LT(stats.records, 7000u);
  EXPECT_GT(stats.latency_ms.count(), 0u);
  // Local pipeline latency is milliseconds, not seconds.
  EXPECT_LT(stats.latency_ms.quantile(0.5), 1000.0);
  runtime.stop();
}

TEST(StreamRuntimeTest, ValueFilterSeesTheValuesItsSourceDraws) {
  // v > 0 on N(0, 1) keeps about half the records the key filter passes.
  // The liveness pass must keep these values live through the key filter:
  // a dead column holds value_mean = 0 everywhere and would keep none.
  // 3,305 is the survivor count of the full N(0, 1) draws.
  StableWorld world;
  JobGraph g;
  SourceSpec spec;
  spec.records_per_sec = 1000.0;
  spec.value_mean = 0.0;
  spec.value_stddev = 1.0;
  const auto src = g.add_source("s", kNEU, spec);
  const auto bots = g.add_operator("bots", kNEU, drop_key_mod3("bots"));
  const auto pos = g.add_operator(
      "pos", kNEU, make_value_filter("pos", [](double v) { return v > 0.0; }));
  const auto sink = g.add_sink("k", kNEU);
  g.connect(src, bots);
  g.connect(bots, pos);
  g.connect(pos, sink);

  NeverBackend backend;
  StreamRuntime runtime(*world.provider, g, backend, RuntimeConfig{});
  runtime.start();
  world.engine.run_until(world.engine.now() + SimDuration::seconds(10));
  EXPECT_EQ(runtime.sink_stats(sink).records, 3305u);
  runtime.stop();
}

TEST(StreamRuntimeTest, WindowedAggregationReducesVolume) {
  StableWorld world;
  JobGraph g;
  SourceSpec spec;
  spec.records_per_sec = 2000.0;
  spec.key_count = 10;
  const auto src = g.add_source("s", kNEU, spec);
  const auto agg = g.add_operator(
      "w", kNEU,
      make_window_aggregate("w", SimDuration::seconds(5), AggregateFn::kMean));
  const auto sink = g.add_sink("k", kNEU);
  g.connect(src, agg);
  g.connect(agg, sink);

  NeverBackend backend;
  StreamRuntime runtime(*world.provider, g, backend, RuntimeConfig{});
  runtime.start();
  world.engine.run_until(world.engine.now() + SimDuration::seconds(30));
  const SinkStats& stats = runtime.sink_stats(sink);
  // 6 windows x <=10 keys: drastic reduction from ~60k source records.
  EXPECT_GT(stats.records, 20u);
  EXPECT_LE(stats.records, 80u);
  runtime.stop();
}

TEST(StreamRuntimeTest, StopReleasesVms) {
  StableWorld world;
  JobGraph g;
  const auto src = g.add_source("s", kNEU, SourceSpec{});
  const auto sink = g.add_sink("k", kNEU);
  g.connect(src, sink);
  NeverBackend backend;
  StreamRuntime runtime(*world.provider, g, backend, RuntimeConfig{});
  runtime.start();
  EXPECT_EQ(world.provider->active_vm_count(), 1u);
  world.engine.run_until(world.engine.now() + SimDuration::seconds(5));
  runtime.stop();
  EXPECT_EQ(world.provider->active_vm_count(), 0u);
}

TEST(StreamRuntimeTest, QueueDepthVisibleUnderOverload) {
  StableWorld world;
  JobGraph g;
  SourceSpec spec;
  spec.records_per_sec = 50000.0;
  const auto src = g.add_source("s", kNEU, spec);
  // An absurdly expensive operator to force backpressure.
  const auto heavy = g.add_operator(
      "heavy", kNEU,
      make_map("heavy", [](const Record& r) { return r; }, /*cost=*/500.0));
  const auto sink = g.add_sink("k", kNEU);
  g.connect(src, heavy);
  g.connect(heavy, sink);

  NeverBackend backend;
  StreamRuntime runtime(*world.provider, g, backend, RuntimeConfig{});
  runtime.start();
  world.engine.run_until(world.engine.now() + SimDuration::seconds(20));
  EXPECT_GT(runtime.queue_depth(heavy), 0u);
  runtime.stop();
}

// ---------------------------------------------------------------------------
// Every operator is its own vertex, so extra consumers hung off a pipeline's
// inner operators cannot change what its main path delivers or when: the
// same sink records, values and latencies, with CPU-factor noise active,
// whether the pipeline idles or is loaded past what one vertex running all
// three operators in series could keep up with.
// ---------------------------------------------------------------------------

/// Per-record costs of a, b and c in the pipeline below.
struct StageCosts {
  const char* load;
  double a;
  double b;
  double c;
};
constexpr StageCosts kIdleCosts{"idle", 1.0, 0.5, 1.0};
constexpr StageCosts kBacklogCosts{"backlog", 600.0, 300.0, 600.0};

struct PipelineRun {
  std::uint64_t records = 0;
  Bytes bytes;
  std::vector<double> latency_ms;
  std::vector<Record> captured;  // what c saw, in order
};

/// s -> a (map) -> b (filter) -> c (tap map) -> k for 10 simulated seconds
/// at 2,000 rec/s. With `extra_sinks`, sinks hang off a and b as well.
PipelineRun run_pipeline(bool extra_sinks, const StageCosts& costs) {
  NoisyWorld world(/*seed=*/7);
  std::vector<Record> captured;

  JobGraph g;
  SourceSpec spec;
  spec.records_per_sec = 2000.0;
  spec.key_count = 64;
  spec.key_skew = 1.1;
  spec.value_stddev = 2.0;
  const auto scale = [](const Record& r) {
    Record o = r;
    o.value = r.value * 2.0 + 0.5;
    return o;
  };
  const auto positive = [](const Record& r) { return r.value > 0.0; };
  const auto tap = [&captured](const Record& r) {
    captured.push_back(r);
    return r;
  };
  const auto src = g.add_source("s", kNEU, spec);
  const auto a = g.add_operator("a", kNEU, make_map("scale", scale, costs.a));
  const auto b = g.add_operator("b", kNEU, make_filter("pos", positive, costs.b));
  const auto c = g.add_operator("c", kNEU, make_map("tap", tap, costs.c));
  const auto sink = g.add_sink("k", kNEU);
  g.connect(src, a);
  g.connect(a, b);
  g.connect(b, c);
  g.connect(c, sink);
  if (extra_sinks) {
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
  out.records = runtime.sink_stats(sink).records;
  out.bytes = runtime.sink_stats(sink).bytes;
  out.latency_ms = runtime.sink_stats(sink).latency_ms.values();
  out.captured = std::move(captured);
  return out;
}

void expect_identical(const PipelineRun& x, const PipelineRun& y) {
  EXPECT_EQ(x.records, y.records);
  EXPECT_EQ(x.bytes, y.bytes);
  // Timing must match exactly, not approximately.
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

TEST(StreamRuntimeTest, ExtraSinksLeaveTheMainPathUnchanged) {
  for (const StageCosts& costs : {kIdleCosts, kBacklogCosts}) {
    SCOPED_TRACE(costs.load);
    const PipelineRun built = run_pipeline(/*extra_sinks=*/false, costs);
    const PipelineRun tapped = run_pipeline(/*extra_sinks=*/true, costs);
    ASSERT_GT(built.records, 0u);
    ASSERT_GT(built.captured.size(), 0u);
    expect_identical(built, tapped);
  }
}

TEST(StreamRuntimeTest, PipelineRunsAreDeterministic) {
  const PipelineRun first = run_pipeline(/*extra_sinks=*/false, kIdleCosts);
  const PipelineRun second = run_pipeline(/*extra_sinks=*/false, kIdleCosts);
  ASSERT_GT(first.records, 0u);
  expect_identical(first, second);
}

}  // namespace
}  // namespace sage::stream
