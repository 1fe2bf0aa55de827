// Property-based suites (parameterized gtest): invariants that must hold
// across seeds, sizes, budgets and parameter sweeps.
#include <gtest/gtest.h>

#include <tuple>

#include "cloud/fabric.hpp"
#include "cloud/topology.hpp"
#include "common/rng.hpp"
#include "model/tradeoff.hpp"
#include "monitor/estimator.hpp"
#include "net/transfer.hpp"
#include "obs/obs.hpp"
#include "sched/multipath.hpp"
#include "stream/graph.hpp"
#include "stream/operator.hpp"
#include "stream/runtime.hpp"
#include "test_util.hpp"

namespace sage {
namespace {

using cloud::Region;
using sage::testing::StableWorld;
using sage::testing::run_until;

// ---------------------------------------------------------------------------
// Fabric conservation: whatever the seed and flow mix, completed flows
// deliver exactly their size, and egress equals the sum of cross-region
// deliveries.
// ---------------------------------------------------------------------------

class FabricConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FabricConservation, BytesAreConserved) {
  sim::SimEngine engine;
  cloud::Fabric fabric(engine, cloud::default_topology(), GetParam());
  Rng rng(GetParam() ^ 0xabcdef);

  std::vector<cloud::NodeId> nodes;
  for (Region r : cloud::kAllRegions) {
    for (int i = 0; i < 2; ++i) {
      nodes.push_back(fabric.add_node(r, ByteRate::megabits_per_sec(100),
                                      ByteRate::megabits_per_sec(100)));
    }
  }

  Bytes expected_egress = Bytes::zero();
  Bytes delivered = Bytes::zero();
  int done = 0;
  const int kFlows = 24;
  for (int i = 0; i < kFlows; ++i) {
    const auto src = nodes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
    auto dst = src;
    while (dst == src) {
      dst = nodes[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
    }
    const Bytes size = Bytes::mb(rng.uniform(1.0, 20.0));
    if (fabric.node_region(src) != fabric.node_region(dst)) expected_egress += size;
    fabric.start_flow(src, dst, size, {}, [&, size](const cloud::FlowResult& r) {
      EXPECT_TRUE(r.ok());
      EXPECT_EQ(r.transferred, size);
      delivered += r.transferred;
      ++done;
    });
  }
  ASSERT_TRUE(run_until(engine, [&] { return done == kFlows; }, SimDuration::hours(6)));

  Bytes total_egress = Bytes::zero();
  for (Region r : cloud::kAllRegions) total_egress += fabric.egress_from(r);
  // Egress counters integrate rate*dt with per-tick rounding; allow a
  // byte-level tolerance per flow.
  EXPECT_NEAR(total_egress.to_mb(), expected_egress.to_mb(), 0.01);
  EXPECT_GT(delivered, Bytes::zero());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricConservation,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

// ---------------------------------------------------------------------------
// Fabric fairness: at every settle point, no flow exceeds its demand cap or
// the pair link's per-flow ceiling.
// ---------------------------------------------------------------------------

class FabricCeilings : public ::testing::TestWithParam<int> {};

TEST_P(FabricCeilings, RatesNeverExceedCeilings) {
  const int flows = GetParam();
  StableWorld world;
  auto& provider = *world.provider;
  std::vector<cloud::VmHandle> a;
  std::vector<cloud::VmHandle> b;
  for (int i = 0; i < flows; ++i) {
    a.push_back(provider.provision(Region::kNorthEU, cloud::VmSize::kSmall));
  }
  for (int i = 0; i < flows; ++i) {
    b.push_back(provider.provision(Region::kNorthUS, cloud::VmSize::kSmall));
  }
  const double flow_cap = provider.topology()
                              .link(Region::kNorthEU, Region::kNorthUS)
                              .per_flow_cap.to_mb_per_sec();

  std::vector<cloud::FlowId> ids;
  int done = 0;
  for (int i = 0; i < flows; ++i) {
    ids.push_back(provider.transfer(a[static_cast<std::size_t>(i)].id,
                                    b[static_cast<std::size_t>(i)].id, Bytes::mb(30), {},
                                    [&](const cloud::FlowResult&) { ++done; }));
  }
  for (int step = 0; step < 20 && done < flows; ++step) {
    world.engine.run_until(world.engine.now() + SimDuration::seconds(1));
    for (const auto id : ids) {
      const double rate = provider.fabric().flow_rate(id).to_mb_per_sec();
      EXPECT_LE(rate, flow_cap * 1.0001);
    }
  }
  ASSERT_TRUE(run_until(world.engine, [&] { return done == flows; }, SimDuration::hours(4)));
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, FabricCeilings, ::testing::Values(1, 2, 4, 8, 16));

// ---------------------------------------------------------------------------
// Transfer completeness: across chunk sizes and stream counts, every byte
// arrives exactly once (dedup absorbs any retransmit races).
// ---------------------------------------------------------------------------

class TransferMatrix
    : public ::testing::TestWithParam<std::tuple<std::int64_t, int>> {};

TEST_P(TransferMatrix, DeliversExactlyOnce) {
  const auto [chunk_kb, streams] = GetParam();
  StableWorld world;
  auto& provider = *world.provider;
  const auto a = provider.provision(Region::kNorthEU, cloud::VmSize::kSmall);
  const auto b = provider.provision(Region::kNorthUS, cloud::VmSize::kSmall);

  net::TransferConfig config;
  config.chunk_size = Bytes::kb(static_cast<double>(chunk_kb));
  config.streams_per_hop = streams;
  const Bytes size = Bytes::mb(11);  // deliberately not chunk-aligned

  net::TransferResult result{};
  bool done = false;
  net::GeoTransfer t(provider, size, net::direct_lane(a.id, b.id), config,
                     [&](const net::TransferResult& r) {
                       result = r;
                       done = true;
                     });
  t.start();
  ASSERT_TRUE(run_until(world.engine, [&] { return done; }, SimDuration::hours(6)));
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.size, size);
  EXPECT_EQ(result.stats.chunks_delivered, result.stats.chunks_total);
  const auto expected_chunks =
      (size.count() + config.chunk_size.count() - 1) / config.chunk_size.count();
  EXPECT_EQ(result.stats.chunks_total, static_cast<int>(expected_chunks));
}

INSTANTIATE_TEST_SUITE_P(
    ChunkAndStreams, TransferMatrix,
    ::testing::Combine(::testing::Values<std::int64_t>(256, 1024, 4096, 16384),
                       ::testing::Values(1, 2, 4)));

// ---------------------------------------------------------------------------
// Estimator invariants across kinds and seeds: mean within observed range,
// stddev non-negative and bounded by the range.
// ---------------------------------------------------------------------------

class EstimatorBounds
    : public ::testing::TestWithParam<std::tuple<monitor::EstimatorKind, std::uint64_t>> {
};

TEST_P(EstimatorBounds, MeanStaysWithinObservedRange) {
  const auto [kind, seed] = GetParam();
  auto estimator = monitor::make_estimator(kind, monitor::EstimatorConfig{});
  Rng rng(seed);
  double lo = 1e300;
  double hi = -1e300;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(1.0, 25.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    estimator->add_sample(SimTime::epoch() + SimDuration::minutes(i), v);
    EXPECT_GE(estimator->mean(), lo - 1e-9);
    EXPECT_LE(estimator->mean(), hi + 1e-9);
    EXPECT_GE(estimator->stddev(), 0.0);
    EXPECT_LE(estimator->stddev(), (hi - lo) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSeeds, EstimatorBounds,
    ::testing::Combine(::testing::Values(monitor::EstimatorKind::kLastSample,
                                         monitor::EstimatorKind::kLinear,
                                         monitor::EstimatorKind::kWeighted),
                       ::testing::Values(3u, 17u, 4242u)));

// ---------------------------------------------------------------------------
// Planner invariants across budgets: node budget respected, inventory never
// overdrawn, predicted throughput monotone in budget.
// ---------------------------------------------------------------------------

class PlannerBudgets : public ::testing::TestWithParam<int> {};

TEST_P(PlannerBudgets, PlanStaysFeasible) {
  const int budget = GetParam();
  monitor::ThroughputMatrix m;
  Rng rng(5);
  for (Region a : cloud::kAllRegions) {
    for (Region b : cloud::kAllRegions) {
      if (a == b) continue;
      m.set(a, b, monitor::LinkEstimate{rng.uniform(2.0, 12.0), 0.5, 20});
    }
  }
  sched::Inventory inventory;
  inventory.fill(4);
  sched::MultiPathPlanner planner;
  const auto plan =
      planner.plan(m, Region::kNorthEU, Region::kNorthUS, inventory, budget);

  EXPECT_LE(plan.nodes_used, budget);
  // Recompute inventory usage from the plan itself.
  std::array<int, cloud::kRegionCount> used{};
  bool first_lane = true;
  for (const auto& p : plan.paths) {
    for (int w = 0; w < p.width; ++w) {
      if (!first_lane) ++used[cloud::region_index(p.route.regions.front())];
      first_lane = false;
      for (std::size_t i = 1; i + 1 < p.route.regions.size(); ++i) {
        ++used[cloud::region_index(p.route.regions[i])];
      }
    }
  }
  for (Region r : cloud::kAllRegions) {
    EXPECT_LE(used[cloud::region_index(r)], inventory[cloud::region_index(r)])
        << cloud::region_name(r);
  }
  // Paths never repeat an intermediate region.
  for (const auto& p : plan.paths) {
    for (std::size_t i = 0; i < p.route.regions.size(); ++i) {
      for (std::size_t j = i + 1; j < p.route.regions.size(); ++j) {
        EXPECT_NE(p.route.regions[i], p.route.regions[j]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, PlannerBudgets,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Tradeoff solver invariants across sizes and throughputs.
// ---------------------------------------------------------------------------

class SolverSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SolverSweep, FrontierIsMonotone) {
  const auto [gb, mbps] = GetParam();
  const model::CostModel model(cloud::PricingModel{}, model::ModelParams{});
  const model::TradeoffSolver solver(model);
  model::TradeoffInputs inputs;
  inputs.size = Bytes::gb(gb);
  inputs.link = monitor::LinkEstimate{mbps, mbps * 0.1, 30};
  inputs.max_nodes = 12;
  const auto frontier = solver.frontier(inputs);
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_LT(frontier[i].time, frontier[i - 1].time);
    // Monotone up to integer micro-USD truncation of the two cost shares.
    EXPECT_GE(frontier[i].vm_cost() + Money::micro_usd(8), frontier[i - 1].vm_cost());
    EXPECT_EQ(frontier[i].egress_cost, frontier[i - 1].egress_cost);
  }
  // resolve() output always lies on the frontier and satisfies caps when
  // feasible.
  model::Tradeoff t;
  t.budget = frontier[frontier.size() / 2].total_cost();
  const auto e = solver.resolve(inputs, t);
  EXPECT_LE(e.total_cost(), t.budget);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndRates, SolverSweep,
    ::testing::Combine(::testing::Values(0.1, 1.0, 10.0),
                       ::testing::Values(2.0, 5.0, 20.0)));

// ---------------------------------------------------------------------------
// Fabric byte conservation *from the metrics registry*: across randomized
// flow mixes (including mid-flight cancellations), the fabric's counters
// must balance exactly — every offered byte is either moved, forgiven
// (completion rounding) or aborted, and the per-pair-link byte counters
// agree with the fabric's own egress accounting byte for byte.
// ---------------------------------------------------------------------------

class FabricMetricsConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FabricMetricsConservation, CountersBalanceExactly) {
  sim::SimEngine engine;
  engine.enable_obs(obs::ObsConfig{});
  cloud::Fabric fabric(engine, cloud::default_topology(), GetParam());
  Rng rng(GetParam() * 7919 + 5);

  std::vector<cloud::NodeId> nodes;
  for (Region r : cloud::kAllRegions) {
    for (int i = 0; i < 2; ++i) {
      nodes.push_back(fabric.add_node(r, ByteRate::megabits_per_sec(150),
                                      ByteRate::megabits_per_sec(150)));
    }
  }

  const int kFlows = 30;
  Bytes offered = Bytes::zero();
  std::vector<cloud::FlowId> cancel_targets;
  int finished = 0;
  for (int i = 0; i < kFlows; ++i) {
    const auto src = nodes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
    auto dst = src;
    while (dst == src) {
      dst = nodes[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
    }
    const Bytes size = Bytes::mb(rng.uniform(2.0, 40.0));
    offered += size;
    const cloud::FlowId id = fabric.start_flow(
        src, dst, size, {}, [&](const cloud::FlowResult&) { ++finished; });
    if (i % 5 == 0) cancel_targets.push_back(id);
  }
  // Let progress accrue, then kill a subset mid-flight so the aborted path
  // is exercised (targets that already completed cancel as a no-op).
  engine.run_until(engine.now() + SimDuration::seconds(2));
  for (const cloud::FlowId id : cancel_targets) fabric.cancel_flow(id);
  ASSERT_TRUE(run_until(engine, [&] { return finished == kFlows; }, SimDuration::hours(6)));

  const auto& m = engine.obs()->metrics();
  const auto count = [&](const char* name) {
    const obs::Counter* c = m.find_counter(name);
    return c != nullptr ? c->value() : 0u;
  };

  EXPECT_EQ(count("fabric.flows.started"), static_cast<std::uint64_t>(kFlows));
  EXPECT_EQ(count("fabric.flows.started"),
            count("fabric.flows.completed") + count("fabric.flows.failed") +
                count("fabric.flows.cancelled"));
  EXPECT_EQ(count("fabric.bytes.offered"), static_cast<std::uint64_t>(offered.count()));
  EXPECT_EQ(count("fabric.bytes.offered"),
            count("fabric.bytes.moved") + count("fabric.bytes.forgiven") +
                count("fabric.bytes.aborted"));
  EXPECT_GT(count("fabric.bytes.moved"), 0u);
  EXPECT_GT(count("fabric.settle.rounds"), 0u);

  // The per-pair-link byte counters and the fabric's egress accounting are
  // incremented by the same advance step, so cross-region totals match
  // exactly — not approximately.
  std::uint64_t cross_link_bytes = 0;
  for (Region a : cloud::kAllRegions) {
    for (Region b : cloud::kAllRegions) {
      if (a == b) continue;
      const std::string label =
          std::string(cloud::region_name(a)) + "->" + std::string(cloud::region_name(b));
      if (const obs::Counter* c =
              m.find_counter("fabric.link.bytes", {{"link", label}})) {
        cross_link_bytes += c->value();
      }
    }
  }
  Bytes egress = Bytes::zero();
  for (Region r : cloud::kAllRegions) egress += fabric.egress_from(r);
  EXPECT_EQ(cross_link_bytes, static_cast<std::uint64_t>(egress.count()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricMetricsConservation,
                         ::testing::Values(3u, 19u, 77u, 2026u));

// ---------------------------------------------------------------------------
// Stream record conservation from metrics: across randomized linear
// pipelines (maps, filters, window aggregates, random sites), every record
// the source emits is at the sink, retained inside an operator (filtered /
// window-pending / mid-compute), queued, riding the WAN, or lost — and the
// counters must say so exactly at any event boundary.
// ---------------------------------------------------------------------------

/// Reliable backend delivering after a fixed delay (keeps WAN batches in
/// flight long enough that the in-flight term is actually exercised).
struct DelayBackend final : stream::TransferBackend {
  sim::SimEngine& engine;
  explicit DelayBackend(sim::SimEngine& e) : engine(e) {}
  void send(Region, Region, Bytes, stream::TransferBackend::DoneFn done) override {
    engine.schedule_after(SimDuration::millis(150), [done = std::move(done)] {
      done(stream::SendOutcome{true, SimDuration::millis(150)});
    });
  }
  [[nodiscard]] std::string_view name() const override { return "delay"; }
};

class StreamMetricsConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamMetricsConservation, RecordsBalanceAcrossRandomPipelines) {
  const std::uint64_t seed = GetParam();
  sim::SimEngine engine;
  engine.enable_obs(obs::ObsConfig{});
  cloud::CloudProvider provider(engine, cloud::stable_topology(), seed);
  Rng rng(seed ^ 0x5eedu);

  stream::JobGraph g;
  stream::SourceSpec spec;
  spec.records_per_sec = 2000.0;
  spec.key_count = 50;
  const auto src = g.add_source("src", Region::kNorthEU, spec);
  stream::VertexId prev = src;
  const int ops = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < ops; ++i) {
    const Region site =
        rng.uniform(0.0, 1.0) < 0.5 ? Region::kNorthEU : Region::kNorthUS;
    const std::string name = "op" + std::to_string(i);
    std::shared_ptr<stream::Operator> op;
    const double kind = rng.uniform(0.0, 1.0);
    if (kind < 0.4) {
      op = stream::make_map(name, [](const stream::Record& r) {
        stream::Record out = r;
        out.value = r.value * 2.0;
        return out;
      });
    } else if (kind < 0.8) {
      const std::uint64_t mod = static_cast<std::uint64_t>(rng.uniform_int(2, 5));
      op = stream::make_filter(
          name, [mod](const stream::Record& r) { return r.key % mod != 0; });
    } else {
      op = stream::make_window_aggregate(name, SimDuration::seconds(1),
                                         stream::AggregateFn::kSum);
    }
    const auto v = g.add_operator(name, site, op);
    g.connect(prev, v);
    prev = v;
  }
  const auto sink = g.add_sink("sink", Region::kNorthUS);
  g.connect(prev, sink);

  DelayBackend backend(engine);
  stream::RuntimeConfig rc;
  rc.seed = seed;
  rc.geo_batch_max_bytes = Bytes::kb(64);
  rc.geo_batch_max_delay = SimDuration::millis(250);
  stream::StreamRuntime runtime(provider, g, backend, rc);
  runtime.start();
  engine.run_until(engine.now() + SimDuration::seconds(10));

  const auto& m = engine.obs()->metrics();
  const auto vcount = [&](const char* name, const std::string& vertex) {
    const obs::Counter* c = m.find_counter(name, {{"vertex", vertex}});
    return c != nullptr ? c->value() : 0u;
  };
  const auto gcount = [&](const char* name) {
    const obs::Counter* c = m.find_counter(name);
    return c != nullptr ? c->value() : 0u;
  };

  // Walk the graph the runtime executes.
  const stream::JobGraph& graph = runtime.graph();
  std::uint64_t source_produced = 0;
  std::uint64_t sink_arrived = 0;
  std::uint64_t retained_in_ops = 0;  // filtered + window-pending + mid-compute
  std::uint64_t queued = 0;
  for (const stream::Vertex& v : graph.vertices()) {
    const std::uint64_t arrived = vcount("stream.records.arrived", v.name);
    const std::uint64_t consumed = vcount("stream.records.consumed", v.name);
    const std::uint64_t produced = vcount("stream.records.produced", v.name);
    switch (v.kind) {
      case stream::VertexKind::kSource:
        source_produced += produced;
        break;
      case stream::VertexKind::kSink:
        sink_arrived += arrived;
        // The sink counter and the runtime's own stats are one number.
        EXPECT_EQ(arrived, runtime.sink_stats(v.id).records) << v.name;
        break;
      case stream::VertexKind::kOperator: {
        // Arrivals are either consumed or still queued — nothing vanishes.
        EXPECT_EQ(arrived, consumed + runtime.queue_depth(v.id)) << v.name;
        EXPECT_GE(consumed, produced) << v.name;
        retained_in_ops += consumed - produced;
        queued += runtime.queue_depth(v.id);
        break;
      }
    }
  }

  // Per-edge conservation: a local edge hands every sent record straight to
  // the downstream vertex; WAN edges collectively balance against the
  // global receive/lost/pending counters.
  std::uint64_t wan_sent = 0;
  for (const stream::Edge& e : graph.edges()) {
    const stream::Vertex& from = graph.vertex(e.from);
    const stream::Vertex& to = graph.vertex(e.to);
    const obs::Counter* sent = m.find_counter(
        "stream.edge.records", {{"edge", from.name + "->" + to.name}});
    ASSERT_NE(sent, nullptr) << from.name << "->" << to.name;
    if (from.site == to.site) {
      EXPECT_EQ(sent->value(), vcount("stream.records.arrived", to.name))
          << from.name << "->" << to.name;
    } else {
      wan_sent += sent->value();
    }
  }
  const std::uint64_t wan_recv = gcount("stream.wan.records.recv");
  const std::uint64_t wan_lost = gcount("stream.wan.records.lost");
  const std::uint64_t wan_pending = runtime.geo_pending_records();
  EXPECT_EQ(wan_sent, wan_recv + wan_lost + wan_pending);
  EXPECT_EQ(wan_lost, 0u);  // the backend never fails

  // End-to-end: every emitted record is accounted for somewhere.
  EXPECT_GT(source_produced, 0u);
  EXPECT_EQ(source_produced,
            sink_arrived + retained_in_ops + queued + wan_pending + wan_lost);

  // Every map and filter is a stateless operator, so stateless passes must
  // actually have run whenever the random pipeline drew one; the count is
  // zero only for an all-window pipeline.
  bool has_stateless = false;
  for (const stream::Vertex& v : graph.vertices()) {
    if (v.kind == stream::VertexKind::kOperator &&
        dynamic_cast<const stream::StatelessOperator*>(v.op.get()) != nullptr) {
      has_stateless = true;
    }
  }
  if (has_stateless) {
    EXPECT_GT(gcount("stream.fused.stages"), 0u);
  }
  runtime.stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamMetricsConservation,
                         ::testing::Values(2u, 13u, 101u, 555u));

// ---------------------------------------------------------------------------
// Wire-size conservation through stateless passes. The batch tracks its
// wire-byte total incrementally (maps rewrite it, filters refresh it from
// survivors); after each pass of a random map/filter pipeline the tracked
// total must equal the actual column sum.
// ---------------------------------------------------------------------------

class WireSizeConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireSizeConservation, TrackedTotalMatchesColumnSumAtEveryStage) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 77 + 5);

  // Random pipeline mixing every stateless flavour: generic record
  // maps/filters, value maps/filters, key filters — several of them
  // size-changing.
  std::vector<std::shared_ptr<stream::Operator>> ops;
  const int n_ops = static_cast<int>(rng.uniform_int(2, 6));
  for (int i = 0; i < n_ops; ++i) {
    const std::string name = "st" + std::to_string(i);
    const double kind = rng.uniform(0.0, 1.0);
    std::shared_ptr<stream::Operator> op;
    if (kind < 0.2) {
      // Generic map that rewrites the wire size (stresses the tracked total).
      op = stream::make_map(name, [](const stream::Record& r) {
        stream::Record out = r;
        out.wire_size = Bytes::of(r.wire_size.count() / 2 + 16);
        return out;
      });
    } else if (kind < 0.4) {
      op = stream::make_value_map(name, [](double v) { return v * 0.5 + 1.0; });
    } else if (kind < 0.6) {
      const double cut = rng.uniform(-1.0, 1.0);
      op = stream::make_value_filter(name, [cut](double v) { return v > cut; });
    } else if (kind < 0.8) {
      const std::uint64_t mod = static_cast<std::uint64_t>(rng.uniform_int(2, 5));
      op = stream::make_key_filter(name, [mod](std::uint64_t k) { return k % mod != 0; });
    } else {
      op = stream::make_filter(name, [](const stream::Record& r) {
        return r.wire_size.count() % 3 != 0;
      });
    }
    ops.push_back(std::move(op));
  }

  stream::RecordBatch batch;
  const int n_records = static_cast<int>(rng.uniform_int(0, 300));
  for (int i = 0; i < n_records; ++i) {
    stream::Record r;
    r.key = static_cast<std::uint64_t>(rng.uniform_int(0, 99));
    r.value = rng.uniform(-2.0, 2.0);
    r.wire_size = Bytes::of(rng.uniform_int(32, 256));
    batch.add(r);
  }

  auto column_sum = [](const stream::RecordBatch& b) {
    Bytes total = Bytes::zero();
    for (const Bytes w : b.wire_sizes()) total += w;
    return total;
  };
  ASSERT_EQ(batch.wire_size(), column_sum(batch));
  for (const auto& op : ops) {
    dynamic_cast<const stream::StatelessOperator&>(*op).apply(batch);
    EXPECT_EQ(batch.wire_size(), column_sum(batch)) << op->name() << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireSizeConservation,
                         ::testing::Values(1u, 7u, 42u, 99u, 1234u));

}  // namespace
}  // namespace sage
