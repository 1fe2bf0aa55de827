#include "stream/runtime.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace sage::stream {

namespace {
/// Free-list cap: enough to cover every vertex queue in the biggest figure
/// topologies without letting a transient burst pin memory forever.
constexpr std::size_t kMaxPooledBatches = 128;
/// VM size leased per site.
constexpr cloud::VmSize kSiteVm = cloud::VmSize::kMedium;
/// Abstract work units per second a compute-factor-1.0 core processes.
constexpr double kWorkUnitsPerSec = 2e6;
}  // namespace

StreamRuntime::StreamRuntime(cloud::CloudProvider& provider, JobGraph graph,
                             TransferBackend& backend, RuntimeConfig config)
    : provider_(provider),
      engine_(provider.engine()),
      graph_(std::move(graph)),
      backend_(backend),
      config_(config),
      rng_(config.seed) {
  graph_.validate();
  states_.resize(graph_.vertices().size());
  for (const Vertex& v : graph_.vertices()) {
    if (v.kind == VertexKind::kOperator) {
      states_[v.id].stateless = dynamic_cast<const StatelessOperator*>(v.op.get());
    }
  }
}

StreamRuntime::~StreamRuntime() {
  *alive_ = false;
  if (running_) stop();
}

void StreamRuntime::start() {
  SAGE_CHECK_MSG(!started_, "start() is one-shot");
  started_ = true;
  running_ = true;

  site_vms_.assign(provider_.topology().region_count(), std::nullopt);
  for (cloud::Region site : graph_.sites_used()) {
    site_vms_[cloud::region_index(site)] =
        provider_.provision(site, kSiteVm).id;
  }

  const std::vector<bool> live = graph_.live_value_outputs();
  for (const Vertex& v : graph_.vertices()) {
    VertexState& st = states_[v.id];
    if (st.stateless != nullptr) st.skip_pass = st.stateless->skips_pass(live[v.id]);
    if (v.kind == VertexKind::kSource) {
      st.values_live = live[v.id];
      if (v.source.key_skew > 0.0) {
        const auto key = std::make_pair(v.source.key_count, v.source.key_skew);
        st.zipf = &samplers_
                       .try_emplace(key, static_cast<std::int64_t>(key.first), key.second)
                       .first->second;
      }
      st.timer = std::make_unique<sim::PeriodicTask>(
          engine_, v.source.emit_interval, [this, id = v.id] { emit_source(id); });
      st.timer->start();
    } else if (v.kind == VertexKind::kOperator &&
               v.op->timer_interval() > SimDuration::zero()) {
      st.timer = std::make_unique<sim::PeriodicTask>(
          engine_, v.op->timer_interval(), [this, id = v.id] {
            RecordBatch out = acquire_batch();
            graph_.vertex(id).op->on_timer(engine_.now(), out);
            dispatch_outputs(id, std::move(out));
          });
      st.timer->start();
    }
  }

  for (const Edge& e : graph_.wan_edges()) {
    auto b = std::make_unique<GeoBatcher>();
    b->edge = e;
    GeoBatcher* raw = b.get();
    b->flusher = std::make_unique<sim::PeriodicTask>(
        engine_, config_.geo_batch_max_delay, [this, raw] {
          if (!raw->pending.empty() &&
              engine_.now() - raw->oldest >= config_.geo_batch_max_delay) {
            flush_geo(*raw);
          }
        });
    b->flusher->start();
    geo_.push_back(std::move(b));
  }

  // Resolve the adjacency once: dispatch never scans the edge list or the
  // batcher list again.
  obs::Observability* o = engine_.obs();
  out_edges_.assign(graph_.vertices().size(), {});
  for (const Edge& e : graph_.edges()) {
    OutEdge oe;
    oe.edge = e;
    if (graph_.vertex(e.from).site != graph_.vertex(e.to).site) {
      for (auto& b : geo_) {
        if (b->edge.from == e.from && b->edge.to == e.to && b->edge.port == e.port) {
          oe.geo = b.get();
          break;
        }
      }
      SAGE_CHECK_MSG(oe.geo != nullptr, "WAN edge without a geo-batcher");
    }
    if (o != nullptr) {
      oe.sent = o->metrics().counter(
          "stream.edge.records",
          {{"edge", graph_.vertex(e.from).name + "->" + graph_.vertex(e.to).name}});
    }
    out_edges_[e.from].push_back(oe);
  }

  if (o != nullptr) {
    auto& m = o->metrics();
    vobs_.resize(states_.size());
    for (const Vertex& v : graph_.vertices()) {
      VertexObs& vo = vobs_[v.id];
      const obs::LabelSet labels = {{"vertex", v.name}};
      vo.arrived = m.counter("stream.records.arrived", labels);
      vo.consumed = m.counter("stream.records.consumed", labels);
      vo.produced = m.counter("stream.records.produced", labels);
      if (v.kind == VertexKind::kSink) {
        vo.watermark = m.gauge("stream.sink.watermark_s", labels);
      }
    }
    obs_wan_batches_ = m.counter("stream.wan.batches");
    obs_wan_bytes_ = m.counter("stream.wan.bytes");
    obs_wan_failures_ = m.counter("stream.wan.failures");
    obs_wan_records_recv_ = m.counter("stream.wan.records.recv");
    obs_wan_records_lost_ = m.counter("stream.wan.records.lost");
    // One count per stateless pass. The name is older than per-operator
    // vertices; perfbench reads it.
    obs_stateless_passes_ = m.counter("stream.fused.stages");
  }
}

void StreamRuntime::stop() {
  if (!running_) return;
  running_ = false;
  for (VertexState& st : states_) {
    if (st.timer) st.timer->stop();
  }
  for (auto& b : geo_) b->flusher->stop();
  for (const auto& vm : site_vms_) {
    if (vm) provider_.release(*vm);
  }
}

cloud::VmId StreamRuntime::site_vm(cloud::Region site) const {
  const std::size_t i = cloud::region_index(site);
  SAGE_CHECK_MSG(i < site_vms_.size() && site_vms_[i].has_value(),
                 "no VM for that site (job does not use it)");
  return *site_vms_[i];
}

const SinkStats& StreamRuntime::sink_stats(VertexId sink) const {
  SAGE_CHECK(graph_.vertex(sink).kind == VertexKind::kSink);
  return states_[sink].sink;
}

std::size_t StreamRuntime::queue_depth(VertexId v) const {
  SAGE_CHECK(v < states_.size());
  std::size_t n = 0;
  for (const PendingBatch& p : states_[v].queue) n += p.batch.size();
  return n;
}

std::size_t StreamRuntime::geo_pending_records() const {
  std::size_t n = 0;
  for (const auto& b : geo_) {
    n += b->pending.size() + b->in_flight_records;
    for (const RecordBatch& parked : b->backlog) n += parked.size();
  }
  return n;
}

RecordBatch StreamRuntime::acquire_batch() {
  if (pool_.empty()) return {};
  RecordBatch b = std::move(pool_.back());
  pool_.pop_back();
  return b;
}

void StreamRuntime::recycle(RecordBatch&& batch) {
  // Moved-from batches whose buffer was stolen have no capacity to keep.
  if (batch.capacity() == 0 || pool_.size() >= kMaxPooledBatches) return;
  batch.clear();
  pool_.push_back(std::move(batch));
}

SimDuration StreamRuntime::compute_delay(cloud::Region site, double work_units) const {
  const cloud::VmId vm = site_vm(site);
  const double cpu = provider_.is_active(vm) ? provider_.vm_cpu_factor(vm) : 1.0;
  const double spec_factor = cloud::vm_spec(kSiteVm).compute_factor;
  return SimDuration::seconds(
      work_units / (kWorkUnitsPerSec * spec_factor * std::max(cpu, 0.05)));
}

void StreamRuntime::emit_source(VertexId v) {
  if (!running_) return;
  const Vertex& vx = graph_.vertex(v);
  VertexState& st = states_[v];
  const double owed = vx.source.records_per_sec * vx.source.emit_interval.to_seconds() +
                      st.carry;
  const auto count = static_cast<std::int64_t>(owed);
  st.carry = owed - static_cast<double>(count);
  if (count <= 0) return;

  RecordBatch batch = acquire_batch();
  batch.reserve(static_cast<std::size_t>(count));
  // Columnar emission with the skew and liveness branches hoisted out of
  // the loop; skewed sources draw from the runtime's shared ZipfSampler,
  // built at start(). Only the RNG-fed key/value columns fill record by
  // record — the draw order (key, then value, per record) matches the
  // record-at-a-time form exactly — while the constant event-time and wire
  // columns bulk-fill afterwards. A source whose values are dead draws keys
  // only, so its key stream differs from the same source with live values;
  // liveness is fixed per graph at start().
  const SimTime now = engine_.now();
  const Bytes rsize = vx.source.record_size;
  const double mean = vx.source.value_mean;
  const double stddev = vx.source.value_stddev;
  auto& ks = batch.keys();
  auto& vs = batch.values();
  const std::size_t kbase = ks.size();
  const std::size_t kfilled = kbase + static_cast<std::size_t>(count);
  ks.resize(kfilled);
  vs.resize(kfilled);
  std::uint64_t* kp = ks.data();
  double* vp = vs.data();
  auto draw = [&](auto key_of) {
    if (st.values_live) {
      for (std::size_t i = kbase; i < kfilled; ++i) {
        kp[i] = static_cast<std::uint64_t>(key_of());
        vp[i] = rng_.normal(mean, stddev);
      }
    } else {
      for (std::size_t i = kbase; i < kfilled; ++i) {
        kp[i] = static_cast<std::uint64_t>(key_of());
      }
      for (std::size_t i = kbase; i < kfilled; ++i) vp[i] = mean;
    }
  };
  if (st.zipf != nullptr) {
    const ZipfSampler& zipf = *st.zipf;
    draw([&] { return zipf(rng_); });
  } else {
    const auto hi = static_cast<std::int64_t>(vx.source.key_count) - 1;
    draw([&] { return rng_.uniform_int(0, hi); });
  }
  // resize + pointer fill rather than insert(end, n, v): libstdc++'s
  // _M_fill_insert takes a generic path an order of magnitude slower than
  // these trivially vectorized store loops.
  auto& et = batch.event_times();
  auto& ws = batch.wire_sizes();
  const std::size_t base = et.size();
  const std::size_t filled = ks.size();
  et.resize(filled);
  ws.resize(filled);
  SimTime* ep = et.data();
  Bytes* wp = ws.data();
  for (std::size_t i = base; i < filled; ++i) ep[i] = now;
  for (std::size_t i = base; i < filled; ++i) wp[i] = rsize;
  batch.set_wire_size(batch.wire_size() +
                      Bytes::of(rsize.count() * static_cast<std::int64_t>(count)));
  dispatch_outputs(v, std::move(batch));
}

void StreamRuntime::dispatch_outputs(VertexId v, RecordBatch out) {
  if (out.empty()) {
    recycle(std::move(out));
    return;
  }
  if (!vobs_.empty()) vobs_[v].produced->add(out.size());
  const auto& edges = out_edges_[v];
  if (edges.empty()) {
    recycle(std::move(out));
    return;
  }
  // Fan-out copies to every downstream edge but the last (broadcast
  // semantics); the last delivery moves the batch itself.
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    RecordBatch copy = acquire_batch();
    copy.append(out);
    deliver(edges[i], std::move(copy));
  }
  deliver(edges.back(), std::move(out));
}

void StreamRuntime::deliver(const OutEdge& oe, RecordBatch batch) {
  if (oe.sent != nullptr) oe.sent->add(batch.size());
  if (oe.geo == nullptr) {
    enqueue(oe.edge.to, oe.edge.port, std::move(batch));
    return;
  }
  GeoBatcher& b = *oe.geo;
  if (b.pending.empty()) b.oldest = engine_.now();
  b.pending.append(std::move(batch));
  recycle(std::move(batch));
  if (b.pending.wire_size() >= config_.geo_batch_max_bytes) flush_geo(b);
}

void StreamRuntime::flush_geo(GeoBatcher& b) {
  if (b.pending.empty()) return;
  // Swap the accumulated records into a pooled batch: move-append into an
  // empty batch exchanges buffers, so `pending` comes back with the pooled
  // batch's capacity instead of re-growing from zero every flush.
  RecordBatch shipped = acquire_batch();
  shipped.append(std::move(b.pending));
  b.backlog.push_back(std::move(shipped));
  pump_geo(b);
}

void StreamRuntime::pump_geo(GeoBatcher& b) {
  if (b.in_flight || b.backlog.empty() || !running_) return;
  b.in_flight = true;
  RecordBatch batch = std::move(b.backlog.front());
  b.backlog.pop_front();
  const cloud::Region src = graph_.vertex(b.edge.from).site;
  const cloud::Region dst = graph_.vertex(b.edge.to).site;
  const Bytes size = batch.wire_size();
  b.in_flight_records = batch.size();
  auto alive = alive_;
  GeoBatcher* raw = &b;
  backend_.send(src, dst, size,
                [this, alive, raw, batch = std::move(batch), size](const SendOutcome& o) mutable {
                  if (!*alive) return;
                  ++wan_.batches;
                  if (obs_wan_batches_ != nullptr) obs_wan_batches_->add();
                  if (o.ok) {
                    wan_.bytes += size;
                    wan_.transfer_s.add(o.elapsed.to_seconds());
                    if (obs_wan_bytes_ != nullptr) {
                      obs_wan_bytes_->add(static_cast<std::uint64_t>(size.count()));
                      obs_wan_records_recv_->add(batch.size());
                    }
                    enqueue(raw->edge.to, raw->edge.port, std::move(batch));
                  } else {
                    ++wan_.failures;
                    if (obs_wan_failures_ != nullptr) {
                      obs_wan_failures_->add();
                      obs_wan_records_lost_->add(batch.size());
                    }
                    recycle(std::move(batch));
                  }
                  raw->in_flight = false;
                  raw->in_flight_records = 0;
                  pump_geo(*raw);
                });
}

void StreamRuntime::enqueue(VertexId v, int port, RecordBatch batch) {
  if (batch.empty()) {
    recycle(std::move(batch));
    return;
  }
  const Vertex& vx = graph_.vertex(v);
  VertexState& st = states_[v];
  if (!vobs_.empty()) vobs_[v].arrived->add(batch.size());

  if (vx.kind == VertexKind::kSink) {
    const SimTime now = engine_.now();
    st.sink.records += batch.size();
    st.sink.bytes += batch.wire_size();
    // Sink accounting reads only the event-time column — a dense 8-byte
    // walk instead of striding 32-byte records. Latencies land in a
    // bulk-extended sample buffer (no per-record push_back), and the
    // watermark is a separate max reduction; both loops vectorize.
    const SimTime* et = batch.event_times().data();
    const std::size_t n = batch.size();
    double* lat = st.sink.latency_ms.extend(n);
    for (std::size_t i = 0; i < n; ++i) lat[i] = (now - et[i]).to_seconds() * 1e3;
    if (!vobs_.empty()) {
      // The watermark max-reduction only feeds the observability gauge —
      // skip the whole pass when nothing reads it.
      double watermark = -1.0;
      for (std::size_t i = 0; i < n; ++i) watermark = std::max(watermark, et[i].to_seconds());
      if (watermark >= 0.0) {
        obs::Gauge* g = vobs_[v].watermark;
        g->set(std::max(g->value(), watermark));
      }
    }
    recycle(std::move(batch));
    return;
  }

  SAGE_CHECK(vx.kind == VertexKind::kOperator);
  st.queue.push_back(PendingBatch{port, std::move(batch)});
  if (!st.busy) process_next(v);
}

void StreamRuntime::process_next(VertexId v) {
  VertexState& st = states_[v];
  if (st.queue.empty() || !running_) {
    st.busy = false;
    return;
  }
  st.busy = true;
  PendingBatch work = std::move(st.queue.front());
  st.queue.pop_front();
  if (!vobs_.empty()) vobs_[v].consumed->add(work.batch.size());

  // One delay per batch, at the CPU factor sampled now.
  const Vertex& vx = graph_.vertex(v);
  const SimDuration delay = compute_delay(
      vx.site, static_cast<double>(work.batch.size()) * vx.op->cost_per_record());

  auto alive = alive_;
  engine_.schedule_after(delay, [this, alive, v, work = std::move(work)]() mutable {
    if (!*alive || !running_) return;
    const VertexState& st2 = states_[v];
    if (st2.stateless != nullptr) {
      if (obs_stateless_passes_ != nullptr) obs_stateless_passes_->add();
      if (!st2.skip_pass) st2.stateless->apply(work.batch);
      dispatch_outputs(v, std::move(work.batch));
    } else {
      RecordBatch out = acquire_batch();
      graph_.vertex(v).op->process(work.port, work.batch, out);
      recycle(std::move(work.batch));
      dispatch_outputs(v, std::move(out));
    }
    process_next(v);
  });
}

}  // namespace sage::stream
