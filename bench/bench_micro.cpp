// Micro-benchmarks (google-benchmark): hot-path costs of the building
// blocks — estimator updates, event-queue throughput, shard windows,
// water-filling settlement, widest-path queries, planner runs. These bound
// the control plane's overhead: a monitoring update must be orders of
// magnitude cheaper than the transfers it steers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>

#include "cloud/fabric.hpp"
#include "cloud/provider.hpp"
#include "cloud/topology.hpp"
#include "common/rng.hpp"
#include "core/sage.hpp"
#include "monitor/estimator.hpp"
#include "monitor/monitoring.hpp"
#include "sched/multipath.hpp"
#include "simcore/engine.hpp"
#include "simcore/sharded_engine.hpp"
#include "stream/graph.hpp"
#include "stream/operator.hpp"
#include "stream/runtime.hpp"

namespace sage {
namespace {

void BM_EstimatorUpdate_WSI(benchmark::State& state) {
  auto estimator =
      monitor::make_estimator(monitor::EstimatorKind::kWeighted, monitor::EstimatorConfig{});
  Rng rng(1);
  std::int64_t i = 0;
  for (auto _ : state) {
    estimator->add_sample(SimTime::from_micros(i++ * 1'000'000), rng.uniform(1.0, 20.0));
    benchmark::DoNotOptimize(estimator->mean());
  }
}
BENCHMARK(BM_EstimatorUpdate_WSI);

void BM_EstimatorUpdate_LSI(benchmark::State& state) {
  auto estimator =
      monitor::make_estimator(monitor::EstimatorKind::kLinear, monitor::EstimatorConfig{});
  Rng rng(1);
  std::int64_t i = 0;
  for (auto _ : state) {
    estimator->add_sample(SimTime::from_micros(i++ * 1'000'000), rng.uniform(1.0, 20.0));
    benchmark::DoNotOptimize(estimator->mean());
  }
}
BENCHMARK(BM_EstimatorUpdate_LSI);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::SimEngine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_after(SimDuration::micros(i), [] {});
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

void BM_EventQueue_CancelHeavy(benchmark::State& state) {
  // Schedule/cancel cost: half the events are cancelled, each removed from
  // the queue at once, and the other half fire.
  std::vector<sim::EventHandle> handles;
  handles.reserve(1000);
  for (auto _ : state) {
    sim::SimEngine engine;
    handles.clear();
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(engine.schedule_after(SimDuration::micros(i), [] {}));
    }
    for (int i = 0; i < 1000; i += 2) handles[static_cast<std::size_t>(i)].cancel();
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue_CancelHeavy);

void BM_EventQueue_Reschedule(benchmark::State& state) {
  // A settle moves the completion event of each component whose earliest
  // finish time changed: N live events, and each round advances the clock
  // 1 ms and moves every one of them to a new time 1-100 ms ahead (none
  // fires).
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::SimEngine engine;
  Rng rng(1);
  const auto ahead = [&] {
    return engine.now() + SimDuration::micros(rng.uniform_int(1'000, 100'000));
  };
  std::vector<sim::EventHandle> handles;
  handles.reserve(n);
  for (std::size_t i = 0; i < n; ++i) handles.push_back(engine.schedule_at(ahead(), [] {}));
  for (auto _ : state) {
    engine.run_until(engine.now() + SimDuration::millis(1));
    for (const sim::EventHandle& h : handles) {
      benchmark::DoNotOptimize(engine.reschedule(h, ahead()));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueue_Reschedule)->Arg(64)->Arg(1024);

void BM_ShardedWindow(benchmark::State& state) {
  // Fixed cost of one lock-step window: Arg 1, 2 and 4 drive 4 lanes on
  // that many threads (1 = inline on the caller); Arg 0 is one lane, with
  // the window as its lookahead. Each lane fires one event per window, and
  // its tick re-arms one window ahead, so every iteration runs exactly one
  // window.
  const auto threads = static_cast<std::size_t>(state.range(0));
  const std::size_t lanes = threads == 0 ? 1 : 4;
  const SimDuration window = SimDuration::millis(1);
  sim::ShardedSimEngine engine(sim::ShardedSimEngine::Options{lanes, window, true, threads});
  struct Tick {
    sim::SimEngine* lane;
    SimDuration period;
    void operator()() const { lane->schedule_after(period, *this); }
  };
  for (std::size_t l = 0; l < lanes; ++l) {
    engine.shard(l).schedule_after(window / 2, Tick{&engine.shard(l), window});
  }
  for (auto _ : state) engine.run_until(engine.now() + window);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardedWindow)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_Settle(benchmark::State& state) {
  // All flows contend on one region-pair link: every refresh tick re-runs
  // max-min water-filling across the whole (single-component) flow set.
  const auto flows = static_cast<int>(state.range(0));
  sim::SimEngine engine;
  cloud::Fabric fabric(engine, cloud::stable_topology(), 1);
  std::vector<cloud::NodeId> srcs;
  std::vector<cloud::NodeId> dsts;
  for (int i = 0; i < flows; ++i) {
    srcs.push_back(fabric.add_node(cloud::Region::kNorthEU,
                                   ByteRate::megabits_per_sec(100),
                                   ByteRate::megabits_per_sec(100)));
    dsts.push_back(fabric.add_node(cloud::Region::kNorthUS,
                                   ByteRate::megabits_per_sec(100),
                                   ByteRate::megabits_per_sec(100)));
  }
  // Payload far beyond the measured horizon so no flow completes mid-run
  // (a drained fabric would go dormant and fake an ultra-cheap tick).
  int live = 0;
  for (int i = 0; i < flows; ++i) {
    fabric.start_flow(srcs[static_cast<std::size_t>(i)], dsts[static_cast<std::size_t>(i)],
                      Bytes::gb(100'000), {}, [&](const cloud::FlowResult&) { --live; });
    ++live;
  }
  engine.run_until(engine.now() + SimDuration::seconds(1));  // activate flows
  for (auto _ : state) {
    // Each refresh tick re-runs water-filling across all flows.
    engine.run_until(engine.now() + SimDuration::millis(500));
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_Settle)->Arg(16)->Arg(64)->Arg(256);

void BM_SettleDisjoint(benchmark::State& state) {
  // N background flows parked on other region pairs (disjoint link sets);
  // the measured event stream starts/cancels flows on one pair. With
  // incremental settlement the per-event cost must be flat in N — only the
  // touched component is re-settled.
  const auto background = static_cast<int>(state.range(0));
  sim::SimEngine engine;
  cloud::Fabric fabric(engine, cloud::stable_topology(), 1);
  fabric.set_refresh_period(SimDuration::hours(24));  // keep refresh out of the loop

  const auto node = [&](cloud::Region r) {
    return fabric.add_node(r, ByteRate::megabits_per_sec(100),
                           ByteRate::megabits_per_sec(100));
  };
  // Spread background flows over every directed region pair except the
  // foreground pair; each flow gets private endpoints so the only shared
  // links inside a bucket are that bucket's pair link.
  std::vector<std::pair<cloud::Region, cloud::Region>> pairs;
  for (cloud::Region a : cloud::kAllRegions) {
    for (cloud::Region b : cloud::kAllRegions) {
      if (a == b) continue;
      if (a == cloud::Region::kNorthEU && b == cloud::Region::kNorthUS) continue;
      pairs.emplace_back(a, b);
    }
  }
  for (int i = 0; i < background; ++i) {
    const auto& [a, b] = pairs[static_cast<std::size_t>(i) % pairs.size()];
    fabric.start_flow(node(a), node(b), Bytes::gb(1000), {},
                      [](const cloud::FlowResult&) {});
  }
  const cloud::NodeId fg_src = node(cloud::Region::kNorthEU);
  const cloud::NodeId fg_dst = node(cloud::Region::kNorthUS);
  engine.run_until(engine.now() + SimDuration::seconds(2));  // activate background
  for (auto _ : state) {
    const cloud::FlowId id = fabric.start_flow(fg_src, fg_dst, Bytes::gb(100), {},
                                               [](const cloud::FlowResult&) {});
    engine.run_until(engine.now() + SimDuration::seconds(1));  // setup + settle
    fabric.cancel_flow(id);                                    // settle again
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SettleDisjoint)->Arg(16)->Arg(64)->Arg(256);

void BM_SettleSparse(benchmark::State& state) {
  // Region-count scaling on a generated sparse topology: a fixed flow
  // population spread over the declared WAN edges of an N-region
  // ring-of-continents world. The fabric's state and settlement passes are
  // sized by the active link set, not N^2, so the curve across
  // Arg(8/64/256) must stay flat (same flows, same refresh ticks) instead
  // of growing ~1000x the way a dense N^2 pair grid would.
  const auto regions = static_cast<std::size_t>(state.range(0));
  constexpr int kFlows = 256;
  sim::SimEngine engine;
  cloud::Fabric fabric(engine, cloud::ring_of_continents(regions, 8, /*stable=*/true), 1);
  std::vector<std::pair<cloud::Region, cloud::Region>> pairs;
  for (const cloud::Topology::Edge& e : fabric.topology().edges()) {
    if (e.src != e.dst) pairs.emplace_back(e.src, e.dst);
  }
  for (int i = 0; i < kFlows; ++i) {
    const auto& [a, b] = pairs[static_cast<std::size_t>(i) % pairs.size()];
    const auto src = fabric.add_node(a, ByteRate::megabits_per_sec(100),
                                     ByteRate::megabits_per_sec(100));
    const auto dst = fabric.add_node(b, ByteRate::megabits_per_sec(100),
                                     ByteRate::megabits_per_sec(100));
    // Payload far beyond the measured horizon so no flow completes mid-run.
    fabric.start_flow(src, dst, Bytes::gb(100'000), {},
                      [](const cloud::FlowResult&) {});
  }
  engine.run_until(engine.now() + SimDuration::seconds(1));  // activate flows
  for (auto _ : state) {
    // Each refresh tick re-settles every bucket with live flows.
    engine.run_until(engine.now() + SimDuration::millis(500));
  }
  state.SetItemsProcessed(state.iterations() * kFlows);
}
BENCHMARK(BM_SettleSparse)->Arg(8)->Arg(64)->Arg(256);

void BM_SettleChurn(benchmark::State& state) {
  // Steady start/complete churn on the noisy 6-region topology: N flows
  // between 12 nodes (two per region) share NICs, so they form one
  // component, and each completion starts a replacement flow. Every
  // iteration runs the fabric to its next completion: the completion's
  // re-settle, the replacement's activation and any refresh tick between.
  // cancel_per_fire counts the engine's cancels (a moved event counts as
  // one) per fired event over the timed iterations.
  const auto flows = static_cast<int>(state.range(0));
  sim::SimEngine engine;
  cloud::Fabric fabric(engine, cloud::default_topology(), 1);
  std::vector<cloud::NodeId> nodes;
  for (cloud::Region r : cloud::kAllRegions) {
    for (int i = 0; i < 2; ++i) {
      nodes.push_back(fabric.add_node(r, ByteRate::megabits_per_sec(400),
                                      ByteRate::megabits_per_sec(400)));
    }
  }
  Rng rng(5);
  std::int64_t completed = 0;
  std::function<void()> start = [&] {
    // Node 2r + i sits in region r. The destination is in another region,
    // so every flow crosses a WAN link.
    const auto src = static_cast<std::size_t>(rng.uniform_int(0, 11));
    const auto region = (src / 2 + static_cast<std::size_t>(rng.uniform_int(1, 5))) % 6;
    const auto dst = 2 * region + static_cast<std::size_t>(rng.uniform_int(0, 1));
    fabric.start_flow(nodes[src], nodes[dst], Bytes::mb(rng.uniform(1.0, 20.0)), {},
                      [&](const cloud::FlowResult&) {
                        ++completed;
                        start();
                      });
  };
  for (int i = 0; i < flows; ++i) start();
  engine.run_until(engine.now() + SimDuration::seconds(5));  // reach steady churn
  const std::uint64_t cancelled = engine.events_cancelled();
  const std::uint64_t fired = engine.events_fired();
  for (auto _ : state) {
    const std::int64_t before = completed;
    while (completed == before) engine.step();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["cancel_per_fire"] =
      static_cast<double>(engine.events_cancelled() - cancelled) /
      static_cast<double>(std::max<std::uint64_t>(1, engine.events_fired() - fired));
}
BENCHMARK(BM_SettleChurn)->Arg(64)->Arg(256);

// ---------------------------------------------------------------------------
// Streaming data plane.
// ---------------------------------------------------------------------------

/// Backend for single-site jobs (never reached).
struct NullBackend final : stream::TransferBackend {
  void send(cloud::Region, cloud::Region, Bytes, DoneFn done) override {
    done(stream::SendOutcome{true, SimDuration::zero()});
  }
  [[nodiscard]] std::string_view name() const override { return "null"; }
};

stream::RecordBatch chain_input(std::size_t n) {
  stream::RecordBatch in;
  Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    stream::Record r;
    r.event_time = SimTime::epoch();
    r.key = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 16));
    r.value = rng.uniform(-2.0, 2.0);
    r.wire_size = Bytes::of(64);
    in.add(r);
  }
  return in;
}

// chain_ops()'s callables, named so BM_StatelessKernels can also run them
// through row-at-a-time passes.
constexpr auto kScale = [](double v) { return v * 1.5 + 0.25; };
constexpr auto kAboveFloor = [](double v) { return v > -1.0; };
constexpr auto kClamp = [](double v) { return v > 1.0 ? 1.0 : v; };
constexpr auto kKeepKey = [](std::uint64_t k) { return k % 10 != 0; };

std::vector<std::shared_ptr<stream::Operator>> chain_ops() {
  // Field-typed factories: each operator lowers to a single-column SoA
  // kernel (value map / value filter / key filter).
  std::vector<std::shared_ptr<stream::Operator>> ops;
  ops.push_back(stream::make_value_map("scale", kScale));
  ops.push_back(stream::make_value_filter("pos", kAboveFloor));
  ops.push_back(stream::make_value_map("clamp", kClamp));
  ops.push_back(stream::make_key_filter("mod", kKeepKey));
  return ops;
}

void BM_StreamPipeline(benchmark::State& state) {
  // End-to-end single-site runtime: source -> map -> filter -> map -> filter
  // -> sink, 40k rec/s for 5 simulated seconds per iteration. Exercises the
  // whole data plane: source emission, vertex queues, per-record operator
  // work, dispatch and sink accounting.
  constexpr double kRate = 40000.0;
  constexpr int kSeconds = 5;
  for (auto _ : state) {
    sim::SimEngine engine;
    cloud::CloudProvider provider(engine, cloud::stable_topology(), 11);
    stream::JobGraph g;
    stream::SourceSpec spec;
    spec.records_per_sec = kRate;
    spec.key_count = 1 << 16;
    const auto src = g.add_source("s", cloud::Region::kNorthEU, spec);
    stream::VertexId prev = src;
    int i = 0;
    for (auto& op : chain_ops()) {
      const auto v = g.add_operator("op" + std::to_string(i++), cloud::Region::kNorthEU, op);
      g.connect(prev, v);
      prev = v;
    }
    const auto sink = g.add_sink("k", cloud::Region::kNorthEU);
    g.connect(prev, sink);
    NullBackend backend;
    stream::StreamRuntime runtime(provider, std::move(g), backend, stream::RuntimeConfig{});
    runtime.start();
    engine.run_until(engine.now() + SimDuration::seconds(kSeconds));
    runtime.stop();
    benchmark::DoNotOptimize(runtime.sink_stats(sink).records);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kRate) * kSeconds);
}
BENCHMARK(BM_StreamPipeline)->Unit(benchmark::kMillisecond);

/// Feeds `batches` in turn to each of `sites` WindowAggregateOperators (one
/// batch per site per round) and closes every window after a full pass over
/// `batches`: the keyed update loop plus the dense flush iteration.
void run_keyed_aggregate(benchmark::State& state, stream::AggregateFn fn, std::size_t sites,
                         const std::vector<stream::RecordBatch>& batches) {
  std::vector<stream::WindowAggregateOperator> ops;
  ops.reserve(sites);
  for (std::size_t i = 0; i < sites; ++i) {
    ops.emplace_back("agg", SimDuration::seconds(1), SimDuration::seconds(1), fn);
  }
  stream::RecordBatch none;
  stream::RecordBatch out;
  std::int64_t records = 0;
  std::size_t b = 0;
  std::size_t site = 0;
  for (auto _ : state) {
    ops[site].process(0, batches[b], none);
    records += static_cast<std::int64_t>(batches[b].size());
    if (++site < sites) continue;
    site = 0;
    if (++b < batches.size()) continue;
    b = 0;
    for (auto& op : ops) {
      out.clear();
      op.on_timer(SimTime::epoch(), out);
      benchmark::DoNotOptimize(out.size());
    }
  }
  state.SetItemsProcessed(records);
}

void BM_KeyedAggregate(benchmark::State& state) {
  // Keyed tumbling-window state: 1024-record batches over `range(0)`
  // uniform keys, window flush every 64 batches.
  const auto keys = static_cast<std::uint64_t>(state.range(0));
  constexpr std::size_t kBatch = 1024;
  std::vector<stream::RecordBatch> batches;
  Rng rng(3);
  for (int b = 0; b < 64; ++b) {
    stream::RecordBatch in;
    for (std::size_t i = 0; i < kBatch; ++i) {
      stream::Record r;
      r.key = static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<std::int64_t>(keys) - 1));
      r.value = rng.uniform(0.0, 1.0);
      in.add(r);
    }
    batches.push_back(std::move(in));
  }
  run_keyed_aggregate(state, stream::AggregateFn::kMean, 1, batches);
}
BENCHMARK(BM_KeyedAggregate)->Arg(1 << 10)->Arg(1 << 16);

/// geo-stream's per-site window input for 5 s: Zipf(20k keys, skew 1.1)
/// clicks that survive the key % 11 != 3 bot filter, in 50 ~900-record
/// batches (100 ms each of a 10k rec/s source).
std::vector<stream::RecordBatch> geo_stream_batches() {
  constexpr std::size_t kSourceBatch = 1000;
  const ZipfSampler zipf(20000, 1.1);
  std::vector<stream::RecordBatch> batches;
  Rng rng(3);
  for (int b = 0; b < 50; ++b) {
    stream::RecordBatch in;
    for (std::size_t i = 0; i < kSourceBatch; ++i) {
      stream::Record r;
      r.key = static_cast<std::uint64_t>(zipf(rng));
      r.value = 2.0 * rng.normal(1.0, 0.5) + 1.0;
      if (r.key % 11 != 3) in.add(r);
    }
    batches.push_back(std::move(in));
  }
  return batches;
}

void BM_KeyedAggregate_GeoStream(benchmark::State& state) {
  // geo-stream's per-site window: geo_stream_batches() into kCount, and a
  // flush every 50 batches (a 5 s window). `range(0)` sites take turns,
  // each with its own window state, so at 6 (the workload's site count)
  // five other states are touched between two batches of one site.
  run_keyed_aggregate(state, stream::AggregateFn::kCount,
                      static_cast<std::size_t>(state.range(0)), geo_stream_batches());
}
BENCHMARK(BM_KeyedAggregate_GeoStream)->Arg(1)->Arg(6);

void BM_SlidingWindowAggregate(benchmark::State& state) {
  // A 30 s mean sliding every 5 s (six panes) over geo_stream_batches(),
  // built through make_sliding_window_aggregate: 50 batches per slide,
  // then an emission that combines the six panes and flushes them.
  const std::vector<stream::RecordBatch> batches = geo_stream_batches();
  const auto op = stream::make_sliding_window_aggregate(
      "mean", SimDuration::seconds(30), SimDuration::seconds(5), stream::AggregateFn::kMean);
  stream::RecordBatch none;
  stream::RecordBatch out;
  std::int64_t records = 0;
  std::size_t b = 0;
  for (auto _ : state) {
    op->process(0, batches[b], none);
    records += static_cast<std::int64_t>(batches[b].size());
    if (++b < batches.size()) continue;
    b = 0;
    out.clear();
    op->on_timer(SimTime::epoch(), out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_SlidingWindowAggregate);

void BM_WindowJoin(benchmark::State& state) {
  // Two keyed streams joined over a 1 s window, built through
  // make_window_join: 512-record batches 100 ms apart on each side, keys
  // uniform over 4096, the expiry timer every 500 ms (window / 2). About
  // ten batches per side stay buffered, so a probe finds about 1.25
  // matches. After 64 batch pairs the state expires wholesale and the
  // batches' event times start over.
  constexpr std::size_t kBatch = 512;
  constexpr int kPairs = 64;
  const SimDuration step = SimDuration::millis(100);
  const auto op = stream::make_window_join("join", SimDuration::seconds(1),
                                           [](double l, double r) { return 0.5 * l + r; });
  std::vector<stream::RecordBatch> sides[2];
  Rng rng(5);
  for (int b = 0; b < kPairs; ++b) {
    for (auto& side : sides) {
      stream::RecordBatch in;
      for (std::size_t i = 0; i < kBatch; ++i) {
        stream::Record r;
        r.event_time = SimTime::epoch() + step * b;
        r.key = static_cast<std::uint64_t>(rng.uniform_int(0, 4095));
        r.value = rng.uniform(0.0, 1.0);
        r.wire_size = Bytes::of(64);
        in.add(r);
      }
      side.push_back(std::move(in));
    }
  }
  stream::RecordBatch out;
  int b = 0;
  for (auto _ : state) {
    out.clear();
    op->process(0, sides[0][static_cast<std::size_t>(b)], out);
    op->process(1, sides[1][static_cast<std::size_t>(b)], out);
    benchmark::DoNotOptimize(out.size());
    const SimTime now = SimTime::epoch() + step * (b + 1);
    if (++b == kPairs) {
      b = 0;
      op->on_timer(now + SimDuration::seconds(1), out);
    } else if (b % 5 == 0) {
      op->on_timer(now, out);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * kBatch));
}
BENCHMARK(BM_WindowJoin);

void BM_KeyedAggregateAoS(benchmark::State& state) {
  // Array-of-structs reference for BM_KeyedAggregate: the identical keyed
  // kMean fold over std::vector<Record> batches (the pre-SoA layout, 32-byte
  // stride). The delta against BM_KeyedAggregate is the columnar gather win.
  struct KeyState {
    double acc = 0.0;
    std::uint64_t count = 0;
    SimTime oldest_event;
  };
  const auto keys = static_cast<std::uint64_t>(state.range(0));
  FlatMap<KeyState> agg;
  constexpr std::size_t kBatch = 1024;
  std::vector<std::vector<stream::Record>> batches;
  Rng rng(3);
  for (int b = 0; b < 64; ++b) {
    std::vector<stream::Record> in;
    in.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      stream::Record r;
      r.key = static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<std::int64_t>(keys) - 1));
      r.value = rng.uniform(0.0, 1.0);
      in.push_back(r);
    }
    batches.push_back(std::move(in));
  }
  std::size_t b = 0;
  for (auto _ : state) {
    for (const stream::Record& r : batches[b]) {
      auto [s, inserted] = agg.find_or_insert(r.key);
      if (inserted) {
        s->oldest_event = r.event_time;
      } else if (r.event_time < s->oldest_event) {
        s->oldest_event = r.event_time;
      }
      s->acc += r.value;
      ++s->count;
    }
    if (++b == batches.size()) {
      b = 0;
      agg.clear();
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_KeyedAggregateAoS)->Arg(1 << 10)->Arg(1 << 16);

/// Row-at-a-time filter pass instantiated on the concrete predicate:
/// gather each row, test it, scatter survivors forward.
template <class F>
stream::BatchApplyFn row_filter(F keep) {
  return [keep](stream::RecordBatch& batch) {
    const std::size_t n = batch.size();
    std::size_t w = 0;
    Bytes total = Bytes::zero();
    for (std::size_t i = 0; i < n; ++i) {
      const stream::Record r = batch.row(i);
      if (keep(r)) {
        batch.set_row(w++, r);
        total += r.wire_size;
      }
    }
    batch.truncate(w);
    batch.set_wire_size(total);
  };
}

void BM_StatelessKernels(benchmark::State& state) {
  // chain_ops() over one 4096-record batch, one operator at a time, two
  // ways: scalar row-at-a-time passes instantiated on the same callables
  // (arg 0) vs each operator's own column kernel (arg 1). Same survivors —
  // the delta is pure execution-path speed.
  const bool kernels = state.range(0) != 0;
  std::vector<const stream::StatelessOperator*> ops;
  const auto owned = chain_ops();
  for (const auto& op : owned) {
    ops.push_back(dynamic_cast<const stream::StatelessOperator*>(op.get()));
    SAGE_CHECK(ops.back() != nullptr);
  }
  const std::vector<stream::BatchApplyFn> scalar = {
      stream::make_map_apply([](stream::Record r) {
        r.value = kScale(r.value);
        return r;
      }),
      row_filter([](const stream::Record& r) { return kAboveFloor(r.value); }),
      stream::make_map_apply([](stream::Record r) {
        r.value = kClamp(r.value);
        return r;
      }),
      row_filter([](const stream::Record& r) { return kKeepKey(r.key); })};
  const stream::RecordBatch in = chain_input(4096);
  for (auto _ : state) {
    stream::RecordBatch cur = in;
    for (std::size_t i = 0; i < ops.size() && !cur.empty(); ++i) {
      if (kernels) {
        ops[i]->apply(cur);
      } else {
        scalar[i](cur);
      }
    }
    benchmark::DoNotOptimize(cur.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(in.size()));
}
BENCHMARK(BM_StatelessKernels)->Arg(0)->Arg(1);

void BM_BatchTranspose(benchmark::State& state) {
  // Row gather/scatter round trip across the columnar batch: materialize
  // every row as a Record and scatter it back. Bounds the per-record cost a
  // row-oriented operator pays for the SoA layout.
  stream::RecordBatch batch = chain_input(4096);
  for (auto _ : state) {
    const std::size_t n = batch.size();
    for (std::size_t i = 0; i < n; ++i) {
      stream::Record r = batch.row(i);
      r.value += 1.0;
      batch.set_row(i, r);
    }
    benchmark::DoNotOptimize(batch.values().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_BatchTranspose);

/// The per-draw Zipf inversion ZipfSampler replaced: the normalization's
/// pow() and 1/(1 - s) are recomputed on every call.
std::int64_t per_draw_zipf(Rng& rng, std::int64_t n, double s) {
  if (n <= 1) return 0;
  const double u = rng.uniform();
  if (s == 1.0) {
    const double h = std::log(static_cast<double>(n));
    return static_cast<std::int64_t>(std::exp(u * h)) - 1;
  }
  const double one_minus_s = 1.0 - s;
  const double h = (std::pow(static_cast<double>(n), one_minus_s) - 1.0) / one_minus_s;
  const double x = std::pow(u * h * one_minus_s + 1.0, 1.0 / one_minus_s);
  auto k = static_cast<std::int64_t>(x) - 1;
  if (k < 0) k = 0;
  if (k >= n) k = n - 1;
  return k;
}

void BM_ZipfDraw(benchmark::State& state) {
  // One geo-stream key draw (20k keys, skew 1.1). Arg 0 recomputes the
  // normalization and inverts per draw; arg 1 draws from a ZipfSampler,
  // whose cut and guide tables answer almost every draw without a pow().
  // In isolation its tables stay cache-hot; BM_SourceBatch adds the value
  // draw and the per-source generators around it.
  std::int64_t n = 20000;
  double s = 1.1;
  benchmark::DoNotOptimize(n);  // run-time inputs: keep pow() unfolded
  benchmark::DoNotOptimize(s);
  Rng rng(5);
  if (state.range(0) == 0) {
    for (auto _ : state) benchmark::DoNotOptimize(per_draw_zipf(rng, n, s));
  } else {
    const ZipfSampler zipf(n, s);
    for (auto _ : state) benchmark::DoNotOptimize(zipf(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfDraw)->Arg(0)->Arg(1);

void BM_SourceBatch(benchmark::State& state) {
  // A bench-local copy of geo-stream's emission: six sources, each with its
  // own Rng, take turns on one shared ZipfSampler(20000, 1.1); each fills a
  // 1000-record batch. Arg 0 draws a key and then normal(1.0, 0.5) per
  // record; arg 1 is the dead-value path, which draws keys only and fills
  // the value column with the mean.
  const bool dead_values = state.range(0) == 1;
  constexpr int kSources = 6;
  constexpr std::size_t kBatch = 1000;
  const ZipfSampler zipf(20000, 1.1);
  std::vector<Rng> rngs;
  for (int i = 0; i < kSources; ++i) rngs.emplace_back(100 + i);
  std::vector<std::uint64_t> keys(kBatch);
  std::vector<double> values(kBatch);
  for (auto _ : state) {
    for (Rng& rng : rngs) {
      if (dead_values) {
        for (std::size_t i = 0; i < kBatch; ++i) keys[i] = static_cast<std::uint64_t>(zipf(rng));
        std::fill(values.begin(), values.end(), 1.0);
      } else {
        for (std::size_t i = 0; i < kBatch; ++i) {
          keys[i] = static_cast<std::uint64_t>(zipf(rng));
          values[i] = rng.normal(1.0, 0.5);
        }
      }
      benchmark::DoNotOptimize(keys.data());
      benchmark::DoNotOptimize(values.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(state.iterations() * kSources * static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_SourceBatch)->Arg(0)->Arg(1);

monitor::ThroughputMatrix bench_matrix() {
  monitor::ThroughputMatrix m;
  Rng rng(9);
  for (cloud::Region a : cloud::kAllRegions) {
    for (cloud::Region b : cloud::kAllRegions) {
      if (a != b) {
        m.set(a, b, monitor::LinkEstimate{rng.uniform(2.0, 12.0), 0.5, 20});
      }
    }
  }
  return m;
}

void BM_WidestPath(benchmark::State& state) {
  const auto m = bench_matrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::widest_path(m, cloud::Region::kNorthEU, cloud::Region::kNorthUS));
  }
}
BENCHMARK(BM_WidestPath);

void BM_MultiPathPlan(benchmark::State& state) {
  const auto m = bench_matrix();
  sched::MultiPathPlanner planner;
  sched::Inventory inventory;
  inventory.fill(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(m, cloud::Region::kNorthEU,
                                          cloud::Region::kNorthUS, inventory, 25));
  }
}
BENCHMARK(BM_MultiPathPlan);

void BM_PlanSparse(benchmark::State& state) {
  // Planner cost vs region count on a sparse hub-and-spoke estimate map.
  // Widest-path relaxes only the declared adjacency rows — 2(N-1) directed
  // entries here — so relaxation work is O(links); what remains is the
  // linear selection scan per settled node (O(N^2) worst case), which
  // bounds this curve. A dense matrix would add N^2 relaxation probes on
  // top of that scan.
  const auto regions = static_cast<std::size_t>(state.range(0));
  monitor::ThroughputMatrix m(regions);
  m.epoch = 1;
  Rng rng(9);
  const cloud::Region hub = cloud::make_region(0);
  for (std::size_t i = 1; i < regions; ++i) {
    m.set(hub, cloud::make_region(i),
          monitor::LinkEstimate{rng.uniform(2.0, 12.0), 0.5, 20});
    m.set(cloud::make_region(i), hub,
          monitor::LinkEstimate{rng.uniform(2.0, 12.0), 0.5, 20});
  }
  sched::MultiPathPlanner planner;
  sched::Inventory inventory;
  inventory.fill(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(m, cloud::make_region(1),
                                          cloud::make_region(regions - 1), inventory,
                                          25));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanSparse)->Arg(8)->Arg(64)->Arg(256);

// ---------------------------------------------------------------------------
// Control plane fast path: epoch-cached snapshots and memoized replanning.
// ---------------------------------------------------------------------------

/// Invalidate every monitored link without moving any estimate: mutable
/// estimator access marks the link dirty and bumps the sample epoch, so the
/// next snapshot() re-queries every link — the full rebuild.
void dirty_all_links(monitor::MonitoringService& service, const cloud::Topology& topo) {
  for (const cloud::Topology::Edge& e : topo.edges()) {
    if (e.src != e.dst) benchmark::DoNotOptimize(service.link_estimator(e.src, e.dst));
  }
}

void BM_Snapshot(benchmark::State& state) {
  // MonitoringService::snapshot() with a frozen sample map. Arg 1: the
  // epoch-validated cache answers with one integer compare. Arg 0: every
  // link is invalidated first, so every call rebuilds all pairs.
  const bool cached = state.range(0) != 0;
  sim::SimEngine engine;
  cloud::CloudProvider provider(engine, cloud::stable_topology(), 5);
  monitor::MonitorConfig config;
  config.probe_interval = SimDuration::minutes(1);
  monitor::MonitoringService service(provider, config);
  for (cloud::Region r : cloud::kAllRegions) {
    service.register_agent(r, provider.provision(r, cloud::VmSize::kSmall).id);
  }
  service.start();
  engine.run_until(engine.now() + SimDuration::minutes(30));
  service.stop();  // freeze the map: every call below sees the same estimates
  for (auto _ : state) {
    if (!cached) dirty_all_links(service, provider.topology());
    benchmark::DoNotOptimize(&service.snapshot());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Snapshot)->Arg(0)->Arg(1);

void BM_SnapshotSparse(benchmark::State& state) {
  // Snapshot rebuild cost vs region count on a generated hub-and-spoke
  // topology. The monitor only materializes estimators for declared links
  // (2(N-1) directed WAN pairs here), and the sparse ThroughputMatrix walks
  // those entries — so the rebuild is O(active links), not O(N^2). Every
  // link is invalidated before each call, so each call pays the full
  // rebuild (the interesting cost), not the epoch check.
  const auto regions = static_cast<std::size_t>(state.range(0));
  sim::SimEngine engine;
  cloud::CloudProvider provider(engine, cloud::hub_and_spoke(regions, /*stable=*/true), 5);
  monitor::MonitorConfig config;
  config.probe_interval = SimDuration::minutes(5);
  monitor::MonitoringService service(provider, config);
  for (cloud::Region r : provider.topology().regions()) {
    service.register_agent(r, provider.provision(r, cloud::VmSize::kSmall).id);
  }
  service.start();
  engine.run_until(engine.now() + SimDuration::minutes(20));
  service.stop();  // freeze the map: every call below sees the same estimates
  for (auto _ : state) {
    dirty_all_links(service, provider.topology());
    benchmark::DoNotOptimize(&service.snapshot());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotSparse)->Arg(8)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_Plan(benchmark::State& state) {
  // Epoch-keyed PlanCache hit (arg 1) vs a raw planner run (arg 0) on
  // identical inputs.
  const bool cached = state.range(0) != 0;
  auto m = bench_matrix();
  m.epoch = 1;  // the cache keys on the epoch; hand-built matrices need one
  sched::MultiPathPlanner planner;
  sched::Inventory inventory;
  inventory.fill(8);
  sched::PlanCache cache;
  for (auto _ : state) {
    if (cached) {
      benchmark::DoNotOptimize(&cache.plan(planner, m, cloud::Region::kNorthEU,
                                           cloud::Region::kNorthUS, inventory, 25));
    } else {
      benchmark::DoNotOptimize(planner.plan(m, cloud::Region::kNorthEU,
                                            cloud::Region::kNorthUS, inventory, 25));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Plan)->Arg(0)->Arg(1);

void BM_ReplanSweep(benchmark::State& state) {
  // One coalesced replan sweep over range(0) live transfers with the
  // monitoring estimates frozen. Arg {N, 1}: the sample epoch is frozen
  // too, so every transfer is skipped with a single integer compare.
  // Arg {N, 0}: the epoch moves before every sweep (one link invalidated,
  // no estimate changed), so every transfer is re-evaluated against a
  // rebuilt snapshot — the per-tick cost whenever a sample has landed, with
  // the planner run once per distinct (src, dst, budget) through the plan
  // cache.
  const auto transfers = static_cast<int>(state.range(0));
  const bool cached = state.range(1) != 0;
  sim::SimEngine engine;
  cloud::CloudProvider provider(engine, cloud::stable_topology(), 17);
  core::SageConfig config;
  config.regions.assign(cloud::kAllRegions.begin(), cloud::kAllRegions.end());
  config.gateways_per_region = 2;
  config.monitoring.probe_interval = SimDuration::minutes(1);
  config.adapt_interval = SimDuration::zero();  // the bench drives the sweep
  config.health_check_interval = SimDuration::zero();
  core::SageEngine sage(provider, config);
  sage.deploy();
  engine.run_until(engine.now() + SimDuration::minutes(30));  // warm the map
  Rng rng(23);
  for (int i = 0; i < transfers; ++i) {
    const auto src = cloud::kAllRegions[static_cast<std::size_t>(rng.uniform_int(0, 5))];
    auto dst = src;
    while (dst == src) {
      dst = cloud::kAllRegions[static_cast<std::size_t>(rng.uniform_int(0, 5))];
    }
    // Payloads far beyond the simulated horizon (sim time stops advancing
    // once the measurement loop starts) so every transfer stays live, but
    // small enough that per-chunk bookkeeping doesn't dominate setup.
    sage.send(src, dst, Bytes::gb(20), [](stream::SendOutcome) {});
  }
  engine.run_until(engine.now() + SimDuration::seconds(1));  // activate lanes
  sage.monitoring().stop();  // freeze the sample map
  for (auto _ : state) {
    if (!cached) {
      benchmark::DoNotOptimize(
          sage.monitoring().link_estimator(cloud::kAllRegions[0], cloud::kAllRegions[1]));
    }
    benchmark::DoNotOptimize(sage.replan_sweep());
  }
  state.SetItemsProcessed(state.iterations() * transfers);
  sage.shutdown();
}
BENCHMARK(BM_ReplanSweep)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sage

BENCHMARK_MAIN();
