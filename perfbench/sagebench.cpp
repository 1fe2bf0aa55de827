// sagebench — the repository's benchmark driver.
//
// Builds three fixed-size, seeded workloads through the library's public
// APIs and reports the metrics listed in perfbench/METRICS.md as one JSON
// object on the last line of stdout:
//
//   geo-stream     a clickstream job (Zipf source -> fused key filter and
//                  value map -> keyed tumbling count per site -> WAN ->
//                  global top-k -> sink) over a plain SageEngine on the
//                  calibrated noisy 6-region topology;
//   bulk-wan       seeded bulk sends over all 30 directed pairs with rotating
//                  tradeoffs, a region outage and a capacity squeeze;
//   sharded-plane  ShardedSage at S=4 on ring_of_continents(32, 4) with a
//                  C5-style send schedule and fault plan.
//
// --trace 0 repeats the job (a fresh world each time, the same inputs, lanes
// inline on sharded-plane) for --seconds and reports end-to-end metrics.
// --trace 1 runs the job untraced, then traced — the driver steps the engine
// itself, times each call from outside and charges each step to a layer —
// and, on sharded-plane, once more with inline lanes; it reports per-layer
// metrics. Both modes check the conservation invariants and that every run
// of one seed yields one digest.
//
// Usage: sagebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_logic.hpp"
#include "chaos/chaos.hpp"
#include "cloud/provider.hpp"
#include "cloud/topology.hpp"
#include "core/sage.hpp"
#include "core/sharded_sage.hpp"
#include "obs/obs.hpp"
#include "simcore/engine.hpp"
#include "simcore/sharded_engine.hpp"
#include "stream/operator.hpp"
#include "stream/runtime.hpp"

#include "chaos_invariants.hpp"  // tests/: the shared conservation checker

namespace sage::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using cloud::Region;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double since_s(std::int64_t t0) { return ns_to_s(now_ns() - t0); }
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Simulator seed of every world. Fixed: --seed drives the generated inputs
/// (send schedules, payloads, the record streams) and nothing else.
constexpr std::uint64_t kWorldSeed = 2013;

// ---------------------------------------------------------------------------
// Metric names and units. run.py checks them against BENCHMARK.json.

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"sim_speed", "s/s"},
    {"payload_gb_per_s", "GB/s"},
    {"peak_rss_mb", "MB"},
    {"sim_transfer_p50_s", "s"},
    {"sim_transfer_p95_s", "s"},
    {"sim_cost_usd", "USD"},
};

constexpr MetricSpec kPerLayer[] = {
    {"simcore.events_fired", "count"},
    {"simcore.cancel_per_fire", "ratio"},
    {"simcore.peek_s", "s"},
    {"simcore.step_ns_p50", "ns"},
    {"simcore.step_ns_p99", "ns"},
    {"simcore.idle_step_s", "s"},
    {"simcore.windows", "count"},
    {"simcore.cross_posts", "count"},
    {"simcore.window_us_mean", "us"},
    {"simcore.lane_imbalance", "ratio"},
    {"simcore.worker_speedup", "ratio"},
    {"cloud.setup_s", "s"},
    {"cloud.step_s", "s"},
    {"cloud.settle_rounds", "count"},
    {"cloud.flows_per_settle", "count"},
    {"cloud.flows_started", "count"},
    {"cloud.active_flows_peak", "count"},
    {"cloud.bytes_moved", "B"},
    {"net.step_s", "s"},
    {"net.chunks_delivered", "count"},
    {"net.retransmissions", "count"},
    {"net.retrans_per_chunk", "ratio"},
    {"net.hop_failures", "count"},
    {"monitor.warmup_s", "s"},
    {"monitor.step_s", "s"},
    {"monitor.probes_sent", "count"},
    {"monitor.probes_suspended", "count"},
    {"monitor.samples", "count"},
    {"monitor.snapshot_hit_ratio", "ratio"},
    {"model.resolve_hit_ratio", "ratio"},
    {"sched.plan_calls", "count"},
    {"sched.plan_hit_ratio", "ratio"},
    {"core.deploy_s", "s"},
    {"core.send_us_p50", "us"},
    {"core.send_us_p99", "us"},
    {"core.step_s", "s"},
    {"core.replans", "count"},
    {"core.replans_skipped", "count"},
    {"stream.step_s", "s"},
    {"stream.records_emitted", "count"},
    {"stream.records_consumed", "count"},
    {"stream.wan_batches", "count"},
    {"stream.wan_send_us_p50", "us"},
    {"stream.wan_send_us_p99", "us"},
    {"stream.geo_pending_peak", "count"},
    {"stream.queue_depth_peak", "count"},
    {"chaos.faults_applied", "count"},
    {"chaos.reverts_applied", "count"},
    {"chaos.step_s", "s"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
    {"records_per_s", "1/s"},
    {"sim_latency_p50_ms", "ms"},
    {"sim_latency_p99_ms", "ms"},
    {"ops_failed_share", "ratio"},
    {"sim_transfer.samples", "count"},
    {"sim_latency.samples", "count"},
};

/// Metric values by name; per-layer metrics a workload has no layer for
/// stay 0.
using Values = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// One run of one job.

/// One op: a bulk send, or a WAN batch on geo-stream.
struct Op {
  bool resolved = false;
  bool ok = false;
  double elapsed_s = 0.0;
  double bytes = 0.0;
};

struct RunResult {
  double setup_s = 0.0;  // cloud_setup_s + deploy_s + warmup_s
  double cloud_setup_s = 0.0;
  double deploy_s = 0.0;
  double warmup_s = 0.0;
  double wall_s = 0.0;  // measured phase
  double sim_s = 0.0;   // simulated seconds of the measured phase
  std::vector<Op> ops;
  double cost_usd = 0.0;
  double records = 0.0;  // source records pushed (geo-stream)
  std::vector<double> latency_ms;
  Digest digest;
  std::vector<std::string> violations;
  Values layers;  // traced runs only
};

void fail(RunResult& r, std::string msg) { r.violations.push_back(std::move(msg)); }

void check_epoch(RunResult& r, std::uint64_t& last, std::uint64_t epoch) {
  if (epoch < last) {
    fail(r, "sample epoch went backwards: " + std::to_string(last) + " -> " +
                std::to_string(epoch));
  }
  last = epoch;
}

double delivered_bytes(const RunResult& r) {
  double b = 0.0;
  for (const Op& op : r.ops) {
    if (op.ok) b += op.bytes;
  }
  return b;
}

std::vector<double> ok_elapsed(const RunResult& r) {
  std::vector<double> xs;
  for (const Op& op : r.ops) {
    if (op.ok) xs.push_back(op.elapsed_s);
  }
  return xs;
}

/// Digest of op outcomes plus the workload's scalar outcomes.
void digest_ops(RunResult& r) {
  for (const Op& op : r.ops) {
    r.digest.add(op.resolved);
    r.digest.add(op.ok);
    r.digest.add_signed(std::llround(op.elapsed_s * 1e6));
  }
  r.digest.add_signed(std::llround(r.cost_usd * 1e6));
}

/// Every op resolved and at least half delivered: the job did its work.
void check_ops(RunResult& r) {
  std::size_t resolved = 0;
  std::size_t ok = 0;
  for (const Op& op : r.ops) {
    resolved += op.resolved ? 1 : 0;
    ok += op.ok ? 1 : 0;
  }
  if (r.ops.empty()) fail(r, "no ops issued");
  if (resolved != r.ops.size()) {
    fail(r, std::to_string(r.ops.size() - resolved) + " of " +
                std::to_string(r.ops.size()) + " ops never resolved");
  }
  if (2 * ok < r.ops.size()) {
    fail(r, "only " + std::to_string(ok) + " of " + std::to_string(r.ops.size()) +
                " ops delivered");
  }
}

std::vector<std::pair<Region, Region>> wan_pairs(const cloud::Topology& topo) {
  std::vector<std::pair<Region, Region>> pairs;
  for (const cloud::Topology::Edge& e : topo.edges()) {
    if (e.src != e.dst) pairs.emplace_back(e.src, e.dst);
  }
  return pairs;
}

// ---------------------------------------------------------------------------
// Outside-in step tracer for plain engines.

/// Drives one plain SimEngine from outside: times every peek_next_time and
/// step call and charges each step to the first layer (attribute_step
/// order) whose monotone counters moved during it.
class StepTracer {
 public:
  using Probe = std::function<std::uint64_t()>;

  void add(Layer l, Probe p) { probes_[static_cast<std::size_t>(l)].push_back(std::move(p)); }
  void add(Layer l, const obs::Counter* c) {
    if (c != nullptr) add(l, [c] { return c->value(); });
  }
  /// Track the running maximum of `read`, sampled after every step.
  void track_peak(std::string name, std::function<double()> read) {
    peaks_.push_back(Peak{std::move(name), std::move(read), 0.0});
  }

  /// Fire every event with timestamp <= end, then advance the clock to end.
  void drive(sim::SimEngine& engine, SimTime end) {
    std::uint64_t before[kLayerCount];
    for (;;) {
      const std::int64_t p0 = now_ns();
      SimTime next;
      const bool pending = engine.peek_next_time(&next);
      peek_ns_ += now_ns() - p0;
      if (!pending || next > end) break;
      for (std::size_t l = 0; l < kLayerCount; ++l) before[l] = sum(l);
      const std::int64_t s0 = now_ns();
      engine.step();
      const std::int64_t dt = now_ns() - s0;
      std::uint32_t moved = 0;
      for (std::size_t l = 0; l < kLayerCount; ++l) {
        if (sum(l) != before[l]) moved |= 1u << l;
      }
      layer_ns_[static_cast<std::size_t>(attribute_step(moved))] += dt;
      step_ns_.push_back(static_cast<double>(dt));
      for (Peak& p : peaks_) p.value = std::max(p.value, p.read());
    }
    engine.run_until(end);
  }

  [[nodiscard]] double peek_s() const { return ns_to_s(peek_ns_); }
  [[nodiscard]] double layer_s(Layer l) const {
    return ns_to_s(layer_ns_[static_cast<std::size_t>(l)]);
  }
  /// Time the trace accounts for: peeks plus every charged step.
  [[nodiscard]] double covered_s() const {
    std::int64_t ns = peek_ns_;
    for (std::int64_t l : layer_ns_) ns += l;
    return ns_to_s(ns);
  }
  [[nodiscard]] const std::vector<double>& step_ns() const { return step_ns_; }
  [[nodiscard]] double peak(const std::string& name) const {
    for (const Peak& p : peaks_) {
      if (p.name == name) return p.value;
    }
    return 0.0;
  }

 private:
  struct Peak {
    std::string name;
    std::function<double()> read;
    double value = 0.0;
  };

  [[nodiscard]] std::uint64_t sum(std::size_t l) const {
    std::uint64_t s = 0;
    for (const Probe& p : probes_[l]) s += p();
    return s;
  }

  std::vector<Probe> probes_[kLayerCount];
  std::vector<Peak> peaks_;
  std::int64_t peek_ns_ = 0;
  std::int64_t layer_ns_[kLayerCount] = {};
  std::vector<double> step_ns_;
};

// ---------------------------------------------------------------------------
// Plain (single-engine) worlds: geo-stream and bulk-wan.

struct PlainWorld {
  sim::SimEngine engine;
  std::unique_ptr<cloud::CloudProvider> provider;
  std::unique_ptr<core::SageEngine> sage;
};

/// Calibrated noisy 6-region topology, a SAGE deployment over every region
/// and ten simulated minutes of monitoring warm-up. Traced worlds enable the
/// metrics registry before any component binds its cells.
std::unique_ptr<PlainWorld> setup_plain(bool traced, RunResult& r) {
  const std::int64_t t0 = now_ns();
  auto w = std::make_unique<PlainWorld>();
  if (traced) {
    obs::ObsConfig cfg;
    cfg.tracing = false;
    w->engine.enable_obs(cfg);
  }
  w->provider = std::make_unique<cloud::CloudProvider>(w->engine, cloud::default_topology(),
                                                       kWorldSeed);
  const std::int64_t t1 = now_ns();
  core::SageConfig config;
  config.regions = w->provider->topology().regions();
  config.monitoring.probe_interval = SimDuration::minutes(1);
  w->sage = std::make_unique<core::SageEngine>(*w->provider, config);
  w->sage->deploy();
  const std::int64_t t2 = now_ns();
  w->engine.run_until(w->engine.now() + SimDuration::minutes(10));
  const std::int64_t t3 = now_ns();
  r.cloud_setup_s = ns_to_s(t1 - t0);
  r.deploy_s = ns_to_s(t2 - t1);
  r.warmup_s = ns_to_s(t3 - t2);
  r.setup_s = ns_to_s(t3 - t0);
  return w;
}

std::uint64_t registry_count(const sim::SimEngine& engine, const char* name) {
  const obs::Observability* o = engine.obs();
  if (o == nullptr) return 0;
  const obs::Counter* c = o->metrics().find_counter(name);
  return c != nullptr ? c->value() : 0;
}

/// The registry cell `name` (created if no component has bound it yet —
/// transfers bind theirs when the first one starts), or null with obs off.
const obs::Counter* registry_cell(sim::SimEngine& engine, const char* name,
                                  const obs::LabelSet& labels = {}) {
  obs::Observability* o = engine.obs();
  return o != nullptr ? o->metrics().counter(name, labels) : nullptr;
}

/// Monotone counters of a plain world, read at the start and end of the
/// measured phase.
Values plain_counters(PlainWorld& w, const chaos::ChaosController* chaos) {
  const sim::SimEngine& e = w.engine;
  core::SageEngine& s = *w.sage;
  Values v;
  v["fired"] = static_cast<double>(e.events_fired());
  v["cancelled"] = static_cast<double>(e.events_cancelled());
  v["settle_rounds"] = static_cast<double>(registry_count(e, "fabric.settle.rounds"));
  v["settle_flows"] = static_cast<double>(registry_count(e, "fabric.settle.flows"));
  v["flows_started"] = static_cast<double>(registry_count(e, "fabric.flows.started"));
  v["bytes_moved"] = static_cast<double>(registry_count(e, "fabric.bytes.moved"));
  v["probes_sent"] = static_cast<double>(s.monitoring().probes_sent());
  v["probes_suspended"] = static_cast<double>(s.monitoring().probes_suspended());
  v["samples"] = static_cast<double>(s.monitoring().sample_epoch());
  v["snap_rebuilt"] = static_cast<double>(s.monitoring().snapshots_rebuilt());
  v["snap_cached"] = static_cast<double>(s.monitoring().snapshots_cached());
  v["plan_hits"] = static_cast<double>(s.plan_cache().hits());
  v["plan_misses"] = static_cast<double>(s.plan_cache().misses());
  v["resolve_hits"] = static_cast<double>(s.resolve_cache().hits());
  v["resolve_misses"] = static_cast<double>(s.resolve_cache().misses());
  v["replans_skipped"] = static_cast<double>(s.replans_skipped());
  v["faults"] = chaos != nullptr ? static_cast<double>(chaos->faults_applied()) : 0.0;
  v["reverts"] = chaos != nullptr ? static_cast<double>(chaos->reverts_applied()) : 0.0;
  return v;
}

Values minus(Values a, const Values& b) {
  for (auto& [k, x] : a) x -= b.at(k);
  return a;
}

/// Register the control-plane, transfer, monitoring and fabric probes.
void attach_plain_probes(StepTracer& tr, PlainWorld& w, const chaos::ChaosController* chaos) {
  sim::SimEngine& e = w.engine;
  core::SageEngine* s = w.sage.get();
  if (chaos != nullptr) {
    tr.add(Layer::kChaos, [chaos] {
      return chaos->faults_applied() + chaos->reverts_applied() + chaos->faults_skipped();
    });
  }
  tr.add(Layer::kCore, [s] {
    return s->history().size() + s->plan_cache().hits() + s->plan_cache().misses() +
           s->resolve_cache().hits() + s->resolve_cache().misses() + s->replans_skipped() +
           s->vms_healed();
  });
  tr.add(Layer::kCore, registry_cell(e, "sched.plan.calls"));
  for (const char* name : {"transfer.started", "transfer.completed", "transfer.failed",
                           "transfer.chunks.delivered", "transfer.retransmissions",
                           "transfer.hop_failures", "transfer.duplicates_dropped"}) {
    tr.add(Layer::kNet, registry_cell(e, name));
  }
  monitor::MonitoringService* m = &s->monitoring();
  tr.add(Layer::kMonitor, [m] {
    return m->sample_epoch() + m->probes_sent() + m->probes_suspended() +
           m->snapshots_rebuilt() + m->snapshots_cached();
  });
  for (const char* name : {"fabric.settle.rounds", "fabric.flows.started",
                           "fabric.flows.completed", "fabric.flows.failed",
                           "fabric.flows.cancelled", "fabric.flows.activations"}) {
    tr.add(Layer::kCloud, registry_cell(e, name));
  }
  cloud::Fabric* fabric = &w.provider->fabric();
  tr.track_peak("flows", [fabric] { return static_cast<double>(fabric->active_flow_count()); });
}

/// Per-layer metrics shared by the plain workloads.
void fill_plain_layers(RunResult& r, const Values& d, const core::SageEngine& sage,
                       std::size_t first_record, const StepTracer& tr,
                       const std::vector<double>& send_us) {
  Values& L = r.layers;
  L["simcore.events_fired"] = d.at("fired");
  L["simcore.cancel_per_fire"] = ratio(d.at("cancelled"), d.at("fired"));
  L["simcore.peek_s"] = tr.peek_s();
  L["simcore.step_ns_p50"] = tail_percentile(tr.step_ns(), 0.50).value;
  L["simcore.step_ns_p99"] = tail_percentile(tr.step_ns(), 0.99).value;
  L["simcore.idle_step_s"] = tr.layer_s(Layer::kIdle);

  L["cloud.setup_s"] = r.cloud_setup_s;
  L["cloud.step_s"] = tr.layer_s(Layer::kCloud);
  L["cloud.settle_rounds"] = d.at("settle_rounds");
  L["cloud.flows_per_settle"] = ratio(d.at("settle_flows"), d.at("settle_rounds"));
  L["cloud.flows_started"] = d.at("flows_started");
  L["cloud.active_flows_peak"] = tr.peak("flows");
  L["cloud.bytes_moved"] = d.at("bytes_moved");

  double chunks = 0.0;
  double retrans = 0.0;
  double hop_failures = 0.0;
  double replans = 0.0;
  const auto& history = sage.history();
  for (std::size_t i = first_record; i < history.size(); ++i) {
    chunks += history[i].stats.chunks_delivered;
    retrans += history[i].stats.retransmissions;
    hop_failures += history[i].stats.hop_failures;
    replans += history[i].replans;
  }
  L["net.step_s"] = tr.layer_s(Layer::kNet);
  L["net.chunks_delivered"] = chunks;
  L["net.retransmissions"] = retrans;
  L["net.retrans_per_chunk"] = ratio(retrans, chunks);
  L["net.hop_failures"] = hop_failures;

  L["monitor.warmup_s"] = r.warmup_s;
  L["monitor.step_s"] = tr.layer_s(Layer::kMonitor);
  L["monitor.probes_sent"] = d.at("probes_sent");
  L["monitor.probes_suspended"] = d.at("probes_suspended");
  L["monitor.samples"] = d.at("samples");
  L["monitor.snapshot_hit_ratio"] =
      ratio(d.at("snap_cached"), d.at("snap_cached") + d.at("snap_rebuilt"));

  L["model.resolve_hit_ratio"] =
      ratio(d.at("resolve_hits"), d.at("resolve_hits") + d.at("resolve_misses"));
  L["sched.plan_calls"] = d.at("plan_hits") + d.at("plan_misses");
  L["sched.plan_hit_ratio"] = ratio(d.at("plan_hits"), d.at("plan_hits") + d.at("plan_misses"));
  L["core.deploy_s"] = r.deploy_s;
  L["core.send_us_p50"] = tail_percentile(send_us, 0.50).value;
  L["core.send_us_p99"] = tail_percentile(send_us, 0.99).value;
  L["core.step_s"] = tr.layer_s(Layer::kCore);
  L["core.replans"] = replans;
  L["core.replans_skipped"] = d.at("replans_skipped");

  L["stream.step_s"] = tr.layer_s(Layer::kStream);
  L["chaos.faults_applied"] = d.at("faults");
  L["chaos.reverts_applied"] = d.at("reverts");
  L["chaos.step_s"] = tr.layer_s(Layer::kChaos);
  L["trace.coverage"] = ratio(tr.covered_s(), r.wall_s);
}

/// Step the world to `end`: traced through the tracer, otherwise in one
/// run_until call.
void advance(sim::SimEngine& engine, StepTracer* tracer, SimTime end) {
  if (tracer != nullptr) {
    tracer->drive(engine, end);
  } else {
    engine.run_until(end);
  }
}

// -- bulk-wan ---------------------------------------------------------------

struct BulkSend {
  double at_s = 0.0;     // offset from the start of the measured phase
  std::size_t pair = 0;  // index into the topology's directed WAN pairs
  double mb = 0.0;
  int tradeoff = 0;  // 0 fastest, 1 within_budget, 2 by_deadline
  double knob = 1.0;  // scales the budget or the deadline
};

constexpr int kBulkSends = 300;
constexpr double kBulkGapS = 1.5;

/// Seeded permutation of [0, n).
std::vector<std::size_t> permutation(InputRng& rng, std::size_t n) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), std::size_t{0});
  for (std::size_t k = n > 0 ? n - 1 : 0; k > 0; --k) std::swap(p[k], p[rng.below(k + 1)]);
  return p;
}

/// Sends come in blocks of `pairs`: block b sends once over every directed
/// pair k, always with payload class (k + 2b) mod 5, tradeoff (k + b) mod 3
/// and a fixed knob stratum. Within a block the pairs are dealt class by
/// class, so every run of five sends carries each payload class once. Every
/// seed thus offers the same multiset of work at the same steady load; the
/// seed orders the pairs and classes and jitters the send times, which moves
/// each send against the faults and the other flows. Wall time and the
/// simulated outcomes stay comparable across seeds.
struct BlockDraw {
  std::size_t pair = 0;
  std::size_t payload_class = 0;  // in [0, kPayloadClasses)
  int tradeoff = 0;               // 0 fastest, 1 within_budget, 2 by_deadline
  double stratum = 0.0;           // in (0, 1)
};
constexpr std::size_t kPayloadClasses = 5;

std::vector<BlockDraw> block_draws(InputRng& rng, std::size_t pairs, std::size_t n) {
  std::vector<BlockDraw> out;
  for (std::size_t b = 0; out.size() < n; ++b) {
    std::vector<std::size_t> by_class[kPayloadClasses];
    for (std::size_t k : permutation(rng, pairs)) {
      by_class[(k + 2 * b) % kPayloadClasses].push_back(k);
    }
    const std::size_t rounds = (pairs + kPayloadClasses - 1) / kPayloadClasses;
    for (std::size_t r = 0; r < rounds && out.size() < n; ++r) {
      for (std::size_t c : permutation(rng, kPayloadClasses)) {
        if (r >= by_class[c].size() || out.size() == n) continue;
        const std::size_t k = by_class[c][r];
        out.push_back(BlockDraw{k, c, static_cast<int>((k + b) % 3),
                                (static_cast<double>((7 * k + b) % pairs) + 0.5) /
                                    static_cast<double>(pairs)});
      }
    }
  }
  return out;
}

/// Open-loop schedule: one send per kBulkGapS (jittered within its slot)
/// from the block draws.
std::vector<BulkSend> bulk_schedule(std::uint64_t seed, std::size_t pairs) {
  InputRng rng(seed ^ 0x62756c6b2d77616eull);
  static constexpr double kMb[kPayloadClasses] = {16.0, 32.0, 64.0, 128.0, 256.0};
  const auto draws = block_draws(rng, pairs, kBulkSends);
  std::vector<BulkSend> out;
  for (int i = 0; i < kBulkSends; ++i) {
    const BlockDraw& d = draws[static_cast<std::size_t>(i)];
    BulkSend s;
    s.at_s = kBulkGapS * (i + rng.uniform());
    s.pair = d.pair;
    s.mb = kMb[d.payload_class];
    s.tradeoff = d.tradeoff;
    s.knob = 0.75 + 0.5 * d.stratum;
    out.push_back(s);
  }
  return out;
}

model::Tradeoff bulk_tradeoff(const BulkSend& s) {
  switch (s.tradeoff) {
    case 1:  // roughly 1.5x the payload's egress bill
      return model::Tradeoff::within_budget(
          Money::usd(s.knob * (0.001 + s.mb * 1e-3 * 0.12 * 1.5)));
    case 2:  // roughly the payload at 3 MB/s
      return model::Tradeoff::by_deadline(SimDuration::seconds(s.knob * s.mb / 3.0));
    default:
      return model::Tradeoff::fastest();
  }
}

RunResult run_bulk(const std::vector<BulkSend>& sched, bool traced) {
  RunResult r;
  auto w = setup_plain(traced, r);
  sim::SimEngine& engine = w->engine;
  core::SageEngine& sage = *w->sage;
  const auto pairs = wan_pairs(w->provider->topology());
  const SimTime t0 = engine.now();

  chaos::FaultPlan plan;
  plan.region_outage(t0 + SimDuration::seconds(150), Region::kWestEU, SimDuration::minutes(3));
  plan.capacity_squeeze(t0 + SimDuration::seconds(240), Region::kNorthEU, Region::kNorthUS,
                        0.3, SimDuration::minutes(4));
  chaos::ChaosController chaos(engine,
                               chaos::ChaosTargets{&w->provider->fabric(), &sage.monitoring()},
                               std::move(plan), /*enabled=*/true);

  StepTracer tracer;
  if (traced) attach_plain_probes(tracer, *w, &chaos);
  const Values before = plain_counters(*w, &chaos);
  const std::size_t first_record = sage.history().size();

  r.ops.resize(sched.size());
  std::vector<double> send_us;
  std::size_t done = 0;
  std::uint64_t epoch = sage.monitoring().sample_epoch();
  const std::int64_t wall0 = now_ns();
  for (std::size_t i = 0; i < sched.size(); ++i) {
    r.ops[i].bytes = static_cast<double>(Bytes::mb(sched[i].mb).count());
    engine.schedule_at(t0 + SimDuration::seconds(sched[i].at_s), [&, i] {
      const BulkSend& s = sched[i];
      const auto [a, b] = pairs[s.pair];
      const std::int64_t c0 = traced ? now_ns() : 0;
      sage.send_with(bulk_tradeoff(s), a, b, Bytes::mb(s.mb),
                     [&r, &done, i](const stream::SendOutcome& o) {
                       r.ops[i] = Op{true, o.ok, o.elapsed.to_seconds(), r.ops[i].bytes};
                       ++done;
                     });
      if (traced) send_us.push_back(static_cast<double>(now_ns() - c0) * 1e-3);
    });
  }
  const SimTime budget_end = t0 + SimDuration::hours(3);
  while (done < sched.size() && engine.now() < budget_end) {
    advance(engine, traced ? &tracer : nullptr, engine.now() + SimDuration::seconds(10));
    check_epoch(r, epoch, sage.monitoring().sample_epoch());
  }
  r.wall_s = since_s(wall0);
  r.sim_s = (engine.now() - t0).to_seconds();
  r.cost_usd = w->provider->cost_report().total().to_usd();

  digest_ops(r);
  std::uint64_t chunks = 0;
  for (std::size_t i = first_record; i < sage.history().size(); ++i) {
    chunks += static_cast<std::uint64_t>(sage.history()[i].stats.chunks_delivered);
  }
  r.digest.add(chunks);

  check_ops(r);
  testing::ChaosInvariants inv;
  inv.check_engine(engine, std::numeric_limits<std::uint64_t>::max());
  inv.check_epoch(sage.monitoring());
  if (traced) inv.check_fabric(engine, w->provider->fabric());
  for (const std::string& v : inv.violations()) fail(r, v);

  if (traced) {
    fill_plain_layers(r, minus(plain_counters(*w, &chaos), before), sage, first_record, tracer,
                      send_us);
  }
  return r;
}

// -- geo-stream -------------------------------------------------------------

constexpr double kGeoRatePerSite = 10000.0;  // source records per sim second
constexpr double kGeoSpanS = 300.0;          // source-active sim time

/// Forwarding WAN backend: records each batch's outcome (the geo-stream ops)
/// and, when timed, the wall time of each call into SageEngine::send.
class RecordingBackend final : public stream::TransferBackend {
 public:
  RecordingBackend(core::SageEngine& inner, bool timed) : inner_(inner), timed_(timed) {}

  void send(Region src, Region dst, Bytes size, DoneFn done) override {
    const std::size_t i = ops_.size();
    ops_.push_back(Op{false, false, 0.0, static_cast<double>(size.count())});
    DoneFn wrapped = [this, i, done = std::move(done)](const stream::SendOutcome& o) {
      ops_[i].resolved = true;
      ops_[i].ok = o.ok;
      ops_[i].elapsed_s = o.elapsed.to_seconds();
      done(o);
    };
    if (!timed_) {
      inner_.send(src, dst, size, std::move(wrapped));
      return;
    }
    const std::int64_t t0 = now_ns();
    inner_.send(src, dst, size, std::move(wrapped));
    send_us_.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }

  [[nodiscard]] const std::vector<Op>& ops() const { return ops_; }
  [[nodiscard]] const std::vector<double>& send_us() const { return send_us_; }
  [[nodiscard]] bool all_resolved() const {
    return std::all_of(ops_.begin(), ops_.end(), [](const Op& o) { return o.resolved; });
  }

 private:
  core::SageEngine& inner_;
  bool timed_;
  std::vector<Op> ops_;
  std::vector<double> send_us_;
};

/// Per site: Zipf-keyed click source -> bot filter -> score map (fused) ->
/// 5 s keyed count. The other sites' counts cross the WAN to one global
/// top-k at `hub`; the hub's own counts feed a local sink, so every input of
/// the top-k is a WAN edge (the record-conservation check balances local
/// edges against the downstream vertex's arrivals).
stream::JobGraph clickstream_graph(const std::vector<Region>& sites, Region hub,
                                   stream::VertexId* sink) {
  stream::JobGraph g;
  const stream::VertexId topk = g.add_operator(
      "global-topk", hub,
      stream::make_top_k("global-topk", SimDuration::seconds(10), 25, /*sum_values=*/true));
  *sink = g.add_sink("dashboard", hub);
  g.connect(topk, *sink);
  const stream::VertexId hub_sink = g.add_sink("hub-counts", hub);
  for (Region site : sites) {
    const std::string tag(cloud::region_name(site));
    stream::SourceSpec spec;
    spec.records_per_sec = kGeoRatePerSite;
    spec.record_size = Bytes::of(200);
    spec.key_count = 20000;
    spec.key_skew = 1.1;
    spec.value_mean = 1.0;
    spec.value_stddev = 0.5;
    const auto src = g.add_source("clicks-" + tag, site, spec);
    const auto bots = g.add_operator(
        "bots-" + tag, site,
        stream::make_key_filter("bots-" + tag, [](std::uint64_t key) { return key % 11 != 3; }));
    const auto score = g.add_operator(
        "score-" + tag, site,
        stream::make_value_map("score-" + tag, [](double v) { return 2.0 * v + 1.0; }));
    const auto count = g.add_operator(
        "count-" + tag, site,
        stream::make_window_aggregate("count-" + tag, SimDuration::seconds(5),
                                      stream::AggregateFn::kCount));
    g.connect(src, bots);
    g.connect(bots, score);
    g.connect(score, count);
    g.connect(count, site == hub ? hub_sink : topk);
  }
  return g;
}

RunResult run_geo(std::uint64_t seed, bool traced) {
  RunResult r;
  auto w = setup_plain(traced, r);
  sim::SimEngine& engine = w->engine;
  core::SageEngine& sage = *w->sage;
  RecordingBackend backend(sage, traced);
  const std::vector<Region> sites = w->provider->topology().regions();
  stream::VertexId sink = 0;
  stream::RuntimeConfig cfg;
  cfg.seed = seed;
  cfg.geo_batch_max_bytes = Bytes::mb(4);
  cfg.geo_batch_max_delay = SimDuration::seconds(1);
  cfg.chaos = false;
  auto runtime = std::make_unique<stream::StreamRuntime>(
      *w->provider, clickstream_graph(sites, Region::kNorthUS, &sink), backend, cfg);

  StepTracer tracer;
  if (traced) attach_plain_probes(tracer, *w, nullptr);
  const Values before = plain_counters(*w, nullptr);
  const std::size_t first_record = sage.history().size();
  std::uint64_t epoch = sage.monitoring().sample_epoch();
  const SimTime t0 = engine.now();
  const std::int64_t wall0 = now_ns();
  runtime->start();

  struct VertexCells {
    stream::VertexKind kind;
    const obs::Counter* arrived;
    const obs::Counter* consumed;
    const obs::Counter* produced;
  };
  std::vector<VertexCells> cells;
  if (traced) {
    for (const stream::Vertex& v : runtime->graph().vertices()) {
      const obs::LabelSet label = {{"vertex", v.name}};
      cells.push_back(VertexCells{v.kind, registry_cell(engine, "stream.records.arrived", label),
                                  registry_cell(engine, "stream.records.consumed", label),
                                  registry_cell(engine, "stream.records.produced", label)});
      tracer.add(Layer::kStream, cells.back().arrived);
      tracer.add(Layer::kStream, cells.back().consumed);
      tracer.add(Layer::kStream, cells.back().produced);
    }
    tracer.add(Layer::kStream, registry_cell(engine, "stream.wan.batches"));
    tracer.add(Layer::kStream, registry_cell(engine, "stream.wan.records.recv"));
    tracer.add(Layer::kStream, registry_cell(engine, "stream.fused.stages"));
    stream::StreamRuntime* rt = runtime.get();
    tracer.track_peak("geo_pending", [rt] { return static_cast<double>(rt->geo_pending_records()); });
    tracer.track_peak("queue_depth", [rt] {
      std::size_t deepest = 0;
      for (const stream::Vertex& v : rt->graph().vertices()) {
        deepest = std::max(deepest, rt->queue_depth(v.id));
      }
      return static_cast<double>(deepest);
    });
  }

  StepTracer* tr = traced ? &tracer : nullptr;
  const SimTime stop_at = t0 + SimDuration::seconds(kGeoSpanS);
  while (engine.now() < stop_at) {
    advance(engine, tr, std::min(stop_at, engine.now() + SimDuration::seconds(10)));
    check_epoch(r, epoch, sage.monitoring().sample_epoch());
  }
  runtime->stop();
  // Let the WAN batches already in flight land.
  const SimTime drain_end = engine.now() + SimDuration::minutes(5);
  while (!backend.all_resolved() && engine.now() < drain_end) {
    advance(engine, tr, engine.now() + SimDuration::seconds(5));
  }
  r.wall_s = since_s(wall0);
  r.sim_s = (engine.now() - t0).to_seconds();
  r.cost_usd = w->provider->cost_report().total().to_usd();
  r.ops = backend.ops();
  r.records = kGeoRatePerSite * kGeoSpanS * static_cast<double>(sites.size());
  const stream::SinkStats& sink_stats = runtime->sink_stats(sink);
  r.latency_ms = sink_stats.latency_ms.values();

  digest_ops(r);
  r.digest.add(sink_stats.records);
  r.digest.add_signed(sink_stats.bytes.count());
  double latency_sum = 0.0;
  for (double x : r.latency_ms) latency_sum += x;
  r.digest.add_signed(std::llround(latency_sum * 1e3));
  r.digest.add(runtime->wan_stats().batches);

  check_ops(r);
  if (sink_stats.records == 0) fail(r, "geo-stream sink received no records");
  testing::ChaosInvariants inv;
  inv.check_engine(engine, std::numeric_limits<std::uint64_t>::max());
  inv.check_epoch(sage.monitoring());
  if (traced) {
    inv.check_fabric(engine, w->provider->fabric());
    inv.check_stream(engine, *runtime);
  }
  for (const std::string& v : inv.violations()) fail(r, v);

  if (traced) {
    fill_plain_layers(r, minus(plain_counters(*w, nullptr), before), sage, first_record, tracer,
                      {});
    double emitted = 0.0;
    double consumed = 0.0;
    for (const VertexCells& c : cells) {
      if (c.kind == stream::VertexKind::kSource && c.produced != nullptr) {
        emitted += static_cast<double>(c.produced->value());
      }
      if (c.kind == stream::VertexKind::kOperator && c.consumed != nullptr) {
        consumed += static_cast<double>(c.consumed->value());
      }
    }
    Values& L = r.layers;
    L["stream.records_emitted"] = emitted;
    L["stream.records_consumed"] = consumed;
    L["stream.wan_batches"] = static_cast<double>(registry_count(engine, "stream.wan.batches"));
    L["stream.wan_send_us_p50"] = tail_percentile(backend.send_us(), 0.50).value;
    L["stream.wan_send_us_p99"] = tail_percentile(backend.send_us(), 0.99).value;
    L["stream.geo_pending_peak"] = tracer.peak("geo_pending");
    L["stream.queue_depth_peak"] = tracer.peak("queue_depth");
  }
  return r;
}

// -- sharded-plane ----------------------------------------------------------

struct PlaneSend {
  double at_s = 0.0;
  std::size_t pair = 0;
  double mb = 0.0;
};

constexpr int kPlaneSends = 464;  // two blocks of the ring's 232 WAN pairs
constexpr double kPlaneGapS = 0.5;
constexpr std::size_t kPlaneShards = 4;

/// C5-style schedule: one fastest-tradeoff send per kPlaneGapS (jittered),
/// block draws for pair and payload (see block_draws).
std::vector<PlaneSend> plane_schedule(std::uint64_t seed, std::size_t pairs) {
  InputRng rng(seed ^ 0x706c616e652d3332ull);
  const auto draws = block_draws(rng, pairs, kPlaneSends);
  std::vector<PlaneSend> out;
  for (int i = 0; i < kPlaneSends; ++i) {
    const BlockDraw& d = draws[static_cast<std::size_t>(i)];
    PlaneSend s;
    s.at_s = kPlaneGapS * (i + rng.uniform());
    s.pair = d.pair;
    s.mb = 128.0 + 16.0 * static_cast<double>(d.payload_class);
    out.push_back(s);
  }
  return out;
}

std::shared_ptr<const cloud::Topology> plane_topology() {
  return std::make_shared<const cloud::Topology>(
      cloud::ring_of_continents(32, 4, /*stable=*/true));
}

std::size_t plane_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(kPlaneShards, hw == 0 ? 1 : hw);
}

std::unique_ptr<core::ShardedSage> setup_plane(bool parallel, RunResult& r) {
  const std::int64_t t0 = now_ns();
  auto topo = plane_topology();
  const std::int64_t t1 = now_ns();
  core::SageConfig config;
  config.regions = topo->regions();
  config.monitoring.probe_interval = SimDuration::minutes(1);
  core::ShardedSage::Options opts;
  opts.shards = kPlaneShards;
  opts.parallel = parallel;
  opts.max_workers = plane_workers();
  auto plane = std::make_unique<core::ShardedSage>(std::move(topo), kWorldSeed, config, opts);
  plane->deploy();
  const std::int64_t t2 = now_ns();
  plane->run_for(SimDuration::minutes(10));
  const std::int64_t t3 = now_ns();
  r.cloud_setup_s = ns_to_s(t1 - t0);
  r.deploy_s = ns_to_s(t2 - t1);
  r.warmup_s = ns_to_s(t3 - t2);
  r.setup_s = ns_to_s(t3 - t0);
  return plane;
}

/// Lane-summed accessor counters of a sharded world.
Values plane_counters(core::ShardedSage& p, const chaos::ChaosController& chaos) {
  Values v;
  sim::ShardedSimEngine& e = p.engine();
  v["fired"] = static_cast<double>(e.events_fired());
  v["cancelled"] = static_cast<double>(e.events_cancelled());
  v["windows"] = static_cast<double>(e.windows_run());
  v["cross_posts"] = static_cast<double>(e.cross_posts());
  double probes = 0, suspended = 0, rebuilt = 0, cached = 0;
  double ph = 0, pm = 0, rh = 0, rm = 0, skipped = 0;
  for (std::size_t l = 0; l < p.lane_count(); ++l) {
    core::SageEngine& s = p.lane(l);
    probes += static_cast<double>(s.monitoring().probes_sent());
    suspended += static_cast<double>(s.monitoring().probes_suspended());
    rebuilt += static_cast<double>(s.monitoring().snapshots_rebuilt());
    cached += static_cast<double>(s.monitoring().snapshots_cached());
    ph += static_cast<double>(s.plan_cache().hits());
    pm += static_cast<double>(s.plan_cache().misses());
    rh += static_cast<double>(s.resolve_cache().hits());
    rm += static_cast<double>(s.resolve_cache().misses());
    skipped += static_cast<double>(s.replans_skipped());
    v["lane_fired." + std::to_string(l)] = static_cast<double>(e.shard(l).events_fired());
  }
  // Every lane ingests the same sample multiset; count it once.
  v["samples"] = static_cast<double>(p.lane(0).monitoring().sample_epoch());
  v["probes_sent"] = probes;
  v["probes_suspended"] = suspended;
  v["snap_rebuilt"] = rebuilt;
  v["snap_cached"] = cached;
  v["plan_hits"] = ph;
  v["plan_misses"] = pm;
  v["resolve_hits"] = rh;
  v["resolve_misses"] = rm;
  v["replans_skipped"] = skipped;
  const double lanes = static_cast<double>(p.lane_count());
  v["faults"] = static_cast<double>(chaos.faults_applied()) / lanes;
  v["reverts"] = static_cast<double>(chaos.reverts_applied()) / lanes;
  return v;
}

RunResult run_plane(const std::vector<PlaneSend>& sched, bool traced, bool parallel) {
  RunResult r;
  auto plane = setup_plane(parallel, r);
  sim::ShardedSimEngine& engine = plane->engine();
  const auto pairs = wan_pairs(*plane_topology());
  const std::size_t lanes = plane->lane_count();
  const SimTime t0 = engine.now();

  // C5's fault schedule on the ring's first continent, compressed into the
  // send schedule: a region outage, a capacity squeeze and an estimator
  // poisoning, replicated to every lane.
  const Region relay = cloud::make_region(1);
  const Region a0 = cloud::make_region(0);
  const Region a2 = cloud::make_region(2);
  chaos::FaultPlan fplan;
  const double span_s = kPlaneGapS * kPlaneSends;
  fplan.region_outage(t0 + SimDuration::seconds(0.25 * span_s), relay,
                      SimDuration::seconds(0.25 * span_s));
  fplan.capacity_squeeze(t0 + SimDuration::seconds(0.5 * span_s), a0, a2, 0.4,
                         SimDuration::seconds(0.25 * span_s));
  fplan.poison_estimator(t0 + SimDuration::seconds(0.6 * span_s), a0, a2, 900.0, 3);
  std::vector<chaos::ChaosTargets> targets;
  for (std::size_t l = 0; l < lanes; ++l) {
    targets.push_back(
        chaos::ChaosTargets{&plane->provider(l).fabric(), &plane->lane(l).monitoring()});
  }
  chaos::ChaosController chaos(engine, std::move(targets), std::move(fplan), /*enabled=*/true);

  const Values before = plane_counters(*plane, chaos);
  std::vector<std::size_t> first_record(lanes);
  for (std::size_t l = 0; l < lanes; ++l) first_record[l] = plane->lane(l).history().size();

  // Completions land on the owning lane's thread: per-lane logs, merged only
  // between run_for windows.
  struct alignas(64) LaneLog {
    std::vector<std::pair<std::size_t, Op>> done;
    std::vector<double> send_us;
  };
  std::vector<LaneLog> logs(lanes);
  core::ShardedSage* p = plane.get();
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const auto [a, b] = pairs[sched[i].pair];
    const std::size_t l = plane->lane_of(a);
    const double mb = sched[i].mb;
    engine.shard(l).schedule_at(
        t0 + SimDuration::seconds(sched[i].at_s), [p, &logs, l, a, b, i, mb, traced] {
          const std::int64_t c0 = traced ? now_ns() : 0;
          p->send(a, b, Bytes::mb(mb), model::Tradeoff::fastest(),
                  [&logs, l, i, mb](const stream::SendOutcome& o) {
                    logs[l].done.emplace_back(
                        i, Op{true, o.ok, o.elapsed.to_seconds(),
                              static_cast<double>(Bytes::mb(mb).count())});
                  });
          if (traced) logs[l].send_us.push_back(static_cast<double>(now_ns() - c0) * 1e-3);
        });
  }
  const auto total_done = [&] {
    std::size_t n = 0;
    for (const LaneLog& lg : logs) n += lg.done.size();
    return n;
  };

  std::vector<std::uint64_t> epochs(lanes);
  for (std::size_t l = 0; l < lanes; ++l) epochs[l] = plane->lane(l).monitoring().sample_epoch();
  double flows_peak = 0.0;
  std::int64_t run_ns = 0;
  const SimTime budget_end = t0 + SimDuration::hours(3);
  const std::int64_t wall0 = now_ns();
  while (total_done() < sched.size() && engine.now() < budget_end) {
    const std::int64_t q0 = now_ns();
    plane->run_for(SimDuration::minutes(1));
    run_ns += now_ns() - q0;
    if (traced) {
      std::size_t flows = 0;
      for (std::size_t l = 0; l < lanes; ++l) flows += plane->provider(l).fabric().active_flow_count();
      flows_peak = std::max(flows_peak, static_cast<double>(flows));
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      check_epoch(r, epochs[l], plane->lane(l).monitoring().sample_epoch());
    }
  }
  r.wall_s = since_s(wall0);
  r.sim_s = (engine.now() - t0).to_seconds();

  r.ops.resize(sched.size());
  for (std::size_t i = 0; i < sched.size(); ++i) {
    r.ops[i].bytes = static_cast<double>(Bytes::mb(sched[i].mb).count());
  }
  std::vector<double> send_us;
  for (const LaneLog& lg : logs) {
    for (const auto& [i, op] : lg.done) r.ops[i] = op;
    send_us.insert(send_us.end(), lg.send_us.begin(), lg.send_us.end());
  }
  // The bill summed over the lane replicas (each lane leases the full
  // agent/gateway pool; owned transfers bill on their own lane).
  for (std::size_t l = 0; l < lanes; ++l) {
    r.cost_usd += plane->provider(l).cost_report().total().to_usd();
  }

  digest_ops(r);
  double chunks = 0.0;
  double retrans = 0.0;
  double hop_failures = 0.0;
  double replans = 0.0;
  for (std::size_t l = 0; l < lanes; ++l) {
    const auto& history = plane->lane(l).history();
    for (std::size_t k = first_record[l]; k < history.size(); ++k) {
      chunks += history[k].stats.chunks_delivered;
      retrans += history[k].stats.retransmissions;
      hop_failures += history[k].stats.hop_failures;
      replans += history[k].replans;
    }
  }
  r.digest.add(static_cast<std::uint64_t>(chunks));

  check_ops(r);
  testing::ChaosInvariants inv;
  inv.check_engine(engine, std::numeric_limits<std::uint64_t>::max());
  for (const std::string& v : inv.violations()) fail(r, v);
  if (!plane->epochs_consistent()) fail(r, "sharded lanes ingested different sample epochs");

  if (traced) {
    const Values d = minus(plane_counters(*plane, chaos), before);
    Values& L = r.layers;
    L["simcore.events_fired"] = d.at("fired");
    L["simcore.cancel_per_fire"] = ratio(d.at("cancelled"), d.at("fired"));
    L["simcore.windows"] = d.at("windows");
    L["simcore.cross_posts"] = d.at("cross_posts");
    L["simcore.window_us_mean"] = ratio(ns_to_s(run_ns) * 1e6, d.at("windows"));
    double lane_max = 0.0;
    double lane_sum = 0.0;
    for (std::size_t l = 0; l < lanes; ++l) {
      const double x = d.at("lane_fired." + std::to_string(l));
      lane_max = std::max(lane_max, x);
      lane_sum += x;
    }
    L["simcore.lane_imbalance"] = ratio(lane_max, lane_sum / static_cast<double>(lanes));
    L["cloud.setup_s"] = r.cloud_setup_s;
    L["cloud.active_flows_peak"] = flows_peak;
    L["net.chunks_delivered"] = chunks;
    L["net.retransmissions"] = retrans;
    L["net.retrans_per_chunk"] = ratio(retrans, chunks);
    L["net.hop_failures"] = hop_failures;
    L["monitor.warmup_s"] = r.warmup_s;
    L["monitor.probes_sent"] = d.at("probes_sent");
    L["monitor.probes_suspended"] = d.at("probes_suspended");
    L["monitor.samples"] = d.at("samples");
    L["monitor.snapshot_hit_ratio"] =
        ratio(d.at("snap_cached"), d.at("snap_cached") + d.at("snap_rebuilt"));
    L["model.resolve_hit_ratio"] =
        ratio(d.at("resolve_hits"), d.at("resolve_hits") + d.at("resolve_misses"));
    L["sched.plan_calls"] = d.at("plan_hits") + d.at("plan_misses");
    L["sched.plan_hit_ratio"] =
        ratio(d.at("plan_hits"), d.at("plan_hits") + d.at("plan_misses"));
    L["core.deploy_s"] = r.deploy_s;
    L["core.send_us_p50"] = tail_percentile(send_us, 0.50).value;
    L["core.send_us_p99"] = tail_percentile(send_us, 0.99).value;
    L["core.replans"] = replans;
    L["core.replans_skipped"] = d.at("replans_skipped");
    L["chaos.faults_applied"] = d.at("faults");
    L["chaos.reverts_applied"] = d.at("reverts");
    L["trace.coverage"] = ratio(ns_to_s(run_ns), r.wall_s);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Driver.

struct Workload {
  /// One job run on fresh world: (traced, parallel lanes).
  std::function<RunResult(bool, bool)> run;
  /// Set-up only (world construction, deploy, warm-up), lanes inline;
  /// returns setup_s.
  std::function<double()> setup;
  bool sharded = false;
};

bool make_workload(const std::string& name, std::uint64_t seed, Workload* out) {
  if (name == "geo-stream") {
    out->run = [seed](bool traced, bool) { return run_geo(seed, traced); };
    out->setup = [] {
      RunResult r;
      setup_plain(false, r);
      return r.setup_s;
    };
    return true;
  }
  if (name == "bulk-wan") {
    const auto sched = bulk_schedule(seed, wan_pairs(cloud::default_topology()).size());
    out->run = [sched](bool traced, bool) { return run_bulk(sched, traced); };
    out->setup = [] {
      RunResult r;
      setup_plain(false, r);
      return r.setup_s;
    };
    return true;
  }
  if (name == "sharded-plane") {
    const auto sched = plane_schedule(seed, wan_pairs(*plane_topology()).size());
    out->run = [sched](bool traced, bool parallel) { return run_plane(sched, traced, parallel); };
    out->setup = [] {
      RunResult r;
      setup_plane(/*parallel=*/false, r);
      return r.setup_s;
    };
    out->sharded = true;
    return true;
  }
  return false;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed, const Values& values,
                  const MetricSpec* specs, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("# %-28s %18.6f %s\n", specs[i].name, values.at(specs[i].name), specs[i].unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                specs[i].name, json_number(values.at(specs[i].name)).c_str(), specs[i].unit);
  }
  std::printf("}}\n");
}

/// Count a run as failed when it broke an invariant or its digest differs
/// from the reference run of the same seed.
bool audit(const RunResult& r, const RunResult& ref, const char* what) {
  bool ok = true;
  for (const std::string& v : r.violations) {
    std::fprintf(stderr, "sagebench: %s run: %s\n", what, v.c_str());
    ok = false;
  }
  if (r.digest.value() != ref.digest.value()) {
    std::fprintf(stderr, "sagebench: %s run digest %s != reference %s\n", what,
                 r.digest.hex().c_str(), ref.digest.hex().c_str());
    ok = false;
  }
  return ok;
}

/// CPUs the calling thread may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pins the calling thread to one CPU for its lifetime (no-op for cpu < 0).
class PinnedToCpu {
 public:
  explicit PinnedToCpu(int cpu) {
    if (cpu < 0) return;
    CPU_ZERO(&saved_);
    pinned_ = sched_getaffinity(0, sizeof saved_, &saved_) == 0;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = pinned_ && sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinnedToCpu() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

int run_untraced(const std::string& name, std::uint64_t seed, const Workload& wl,
                 double seconds) {
  // Every repeat steps its world on one thread: sharded-plane runs its lanes
  // inline (the traced run measures the worker pool against inline lanes as
  // simcore.worker_speedup). On a shared machine one CPU can run at half
  // speed for minutes while another runs free, and a parallel window waits
  // for the slowest of its workers; a single-threaded repeat can instead
  // rotate over the allowed CPUs.
  //
  // The first run warms allocator pools and caches; it is audited, not timed.
  const RunResult ref = wl.run(false, false);
  // One job's memory high-water mark; later repeats only reuse what it freed.
  const double rss_mb = peak_rss_mb();
  std::size_t failed = audit(ref, ref, "warm-up") ? 0 : 1;
  const std::vector<int> cpus = allowed_cpus();
  // Set-up alone is timed a few times after each repeat, on its CPU, so the
  // set-up median spans the whole measured window and every CPU even where
  // set-up takes a millisecond.
  constexpr int kSetupsPerRepeat = 5;
  std::vector<RunResult> runs;
  std::vector<double> setups;
  const std::int64_t start = now_ns();
  while (runs.size() < 3 || (since_s(start) < seconds && runs.size() < 100)) {
    const PinnedToCpu pin(cpus.empty() ? -1 : cpus[runs.size() % cpus.size()]);
    runs.push_back(wl.run(false, false));
    if (!audit(runs.back(), ref, "measured")) ++failed;
    setups.push_back(runs.back().setup_s);
    for (int i = 0; i < kSetupsPerRepeat; ++i) setups.push_back(wl.setup());
  }
  // Every repeat does the same simulated work, so their walls differ only by
  // what else the machine ran meanwhile. On a shared machine that load comes
  // in bursts of seconds that slow a whole repeat by up to 1.7x; the fastest
  // repeat is the steadiest estimate of the job's own cost.
  const RunResult& best = *std::min_element(
      runs.begin(), runs.end(),
      [](const RunResult& a, const RunResult& b) { return a.wall_s < b.wall_s; });

  Values v;
  v["wall_s"] = best.wall_s;
  v["setup_s"] = median(setups);
  v["sim_speed"] = best.sim_s / best.wall_s;
  v["payload_gb_per_s"] = delivered_bytes(best) * 1e-9 / best.wall_s;
  v["peak_rss_mb"] = rss_mb;
  const Percentile p50 = tail_percentile(ok_elapsed(ref), 0.50);
  const Percentile p95 = tail_percentile(ok_elapsed(ref), 0.95);
  v["sim_transfer_p50_s"] = p50.value;
  v["sim_transfer_p95_s"] = p95.value;
  v["sim_cost_usd"] = ref.cost_usd;

  std::printf("digest %s seed=%llu %s runs=%zu\n", name.c_str(),
              static_cast<unsigned long long>(seed), ref.digest.hex().c_str(), runs.size() + 1);
  std::printf("# sim_transfer_p50_s is p%.4g over %zu ops, sim_transfer_p95_s is p%.4g\n",
              100.0 * p50.q, p50.samples, 100.0 * p95.q);
  const bool correct = failed == 0;
  print_result(correct, runs.size() + 1, failed, v, kEndToEnd, std::size(kEndToEnd));
  return correct ? 0 : 1;
}

int run_traced(const std::string& name, std::uint64_t seed, const Workload& wl) {
  const RunResult warm = wl.run(false, true);
  const RunResult plain = wl.run(false, true);
  const RunResult traced = wl.run(true, true);
  std::size_t failed = 0;
  failed += audit(warm, warm, "warm-up") ? 0 : 1;
  failed += audit(plain, warm, "untraced") ? 0 : 1;
  failed += audit(traced, warm, "traced") ? 0 : 1;
  std::size_t attempted = 3;

  Values v;
  for (const MetricSpec& m : kPerLayer) v[m.name] = 0.0;
  for (const auto& [k, x] : traced.layers) {
    if (v.count(k) == 0) {
      std::fprintf(stderr, "sagebench: unlisted per-layer metric %s\n", k.c_str());
      ++failed;
    }
    v[k] = x;
  }
  if (wl.sharded) {
    const RunResult inline_run = wl.run(false, false);
    ++attempted;
    failed += audit(inline_run, warm, "inline-lanes") ? 0 : 1;
    v["simcore.worker_speedup"] = ratio(inline_run.wall_s, plain.wall_s);
  }
  v["trace.overhead"] = ratio(traced.wall_s, plain.wall_s);
  // End-to-end figures that exist on only some workloads, from the
  // untraced run.
  v["records_per_s"] = ratio(plain.records, plain.wall_s);
  const Percentile lat50 = tail_percentile(plain.latency_ms, 0.50);
  const Percentile lat99 = tail_percentile(plain.latency_ms, 0.99);
  v["sim_latency_p50_ms"] = lat50.value;
  v["sim_latency_p99_ms"] = lat99.value;
  v["sim_latency.samples"] = static_cast<double>(lat99.samples);
  std::size_t failed_ops = 0;
  for (const Op& op : plain.ops) failed_ops += op.ok ? 0 : 1;
  v["ops_failed_share"] = ratio(static_cast<double>(failed_ops), static_cast<double>(plain.ops.size()));
  v["sim_transfer.samples"] = static_cast<double>(ok_elapsed(plain).size());

  std::printf("digest %s seed=%llu %s runs=%zu\n", name.c_str(),
              static_cast<unsigned long long>(seed), warm.digest.hex().c_str(), attempted);
  std::printf("# sim_latency_p99_ms is p%.4g over %zu records\n", 100.0 * lat99.q,
              lat99.samples);
  const bool correct = failed == 0;
  print_result(correct, attempted, failed, v, kPerLayer, std::size(kPerLayer));
  return correct ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <geo-stream|bulk-wan|sharded-plane> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace sage::perfbench

int main(int argc, char** argv) {
  using namespace sage::perfbench;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0) return usage(argv[0]);
  Workload wl;
  if (!make_workload(workload, seed, &wl)) return usage(argv[0]);
  try {
    return trace != 0 ? run_traced(workload, seed, wl)
                      : run_untraced(workload, seed, wl, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sagebench: %s\n", e.what());
    return 1;
  }
}
