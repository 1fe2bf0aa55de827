// The per-site streaming executor and the cross-site runtime.
//
// One VM is provisioned per site used by the job; each vertex executes on
// its site's VM. Batch processing consumes simulated CPU time derived from
// the operator's per-record cost and the VM's time-varying compute factor,
// with FIFO queueing per vertex — so overload manifests as queue growth and
// rising end-to-end latency, exactly the saturation behaviour the scaling
// experiments measure.
//
// Cross-site edges run through a geo-batcher: records accumulate until the
// batch reaches a byte threshold or a maximum age, then ship as one WAN
// transfer through the pluggable TransferBackend. Batching amortizes the
// per-transfer setup and acknowledgement overhead that makes tiny wide-area
// messages so expensive (the A-Brain small-file effect).
//
// Data-plane fast paths (see DESIGN.md "Streaming data plane"):
//
//   * Every operator runs as its own vertex: each batch it takes pays one
//     simulated delay of rows × cost_per_record(), at the CPU factor
//     sampled when the vertex takes the batch.
//   * Batches move, never copy: a stateless operator rewrites its batch in
//     place, the geo-batcher steals buffers, and drained batches return to
//     a free-list pool instead of the allocator.
//   * Per-vertex out-edge adjacency (with resolved geo-batcher pointers) is
//     precomputed at start(), removing an O(edges) scan per dispatch.
//   * No value work nothing reads: start() asks the graph which outputs
//     carry live values (JobGraph::live_value_outputs). A source whose
//     values are dead draws keys only, so its key stream depends on whether
//     its values are live, which is fixed per graph at start(); a value map
//     whose output is dead skips its pass.
#pragma once

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cloud/provider.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "obs/obs.hpp"
#include "stream/backend.hpp"
#include "stream/graph.hpp"
#include "simcore/engine.hpp"

namespace sage::stream {

/// Site VMs are Medium leases whose compute-factor-1.0 core processes 2e6
/// work units per second.
struct RuntimeConfig {
  /// Geo-batcher flush thresholds.
  Bytes geo_batch_max_bytes = Bytes::mb(4);
  SimDuration geo_batch_max_delay = SimDuration::seconds(1);
  /// Seed for source randomness.
  std::uint64_t seed = 42;
  /// Whether the caller attaches a ChaosController to this world. The
  /// runtime itself never reads it.
  bool chaos = false;
};

struct SinkStats {
  std::uint64_t records = 0;
  Bytes bytes;
  /// End-to-end latency (event creation -> sink arrival), milliseconds.
  SampleSet latency_ms;
};

struct WanStats {
  std::uint64_t batches = 0;
  std::uint64_t failures = 0;
  Bytes bytes;
  /// Per-batch transfer time, seconds.
  SampleSet transfer_s;
};

class StreamRuntime {
 public:
  StreamRuntime(cloud::CloudProvider& provider, JobGraph graph, TransferBackend& backend,
                RuntimeConfig config);
  ~StreamRuntime();
  StreamRuntime(const StreamRuntime&) = delete;
  StreamRuntime& operator=(const StreamRuntime&) = delete;

  /// Provision site VMs and start sources/timers.
  void start();

  /// Stop sources and timers, flush nothing further. Leased VMs are
  /// released (their cost lands in the provider's report).
  void stop();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] const JobGraph& graph() const { return graph_; }

  [[nodiscard]] const SinkStats& sink_stats(VertexId sink) const;
  [[nodiscard]] const WanStats& wan_stats() const { return wan_; }

  /// VM hosting a site's executor (valid after start()).
  [[nodiscard]] cloud::VmId site_vm(cloud::Region site) const;

  /// Records currently queued at a vertex (backpressure observability).
  [[nodiscard]] std::size_t queue_depth(VertexId v) const;

  /// Records currently inside the geo layer: accumulating in a pending
  /// batch, parked in a backlog, or riding a WAN transfer. Conservation
  /// tests need this to balance records-sent against records-arrived.
  [[nodiscard]] std::size_t geo_pending_records() const;

 private:
  struct PendingBatch {
    int port;
    RecordBatch batch;
  };

  struct VertexState {
    std::deque<PendingBatch> queue;
    bool busy = false;
    SinkStats sink;  // kSink only
    std::unique_ptr<sim::PeriodicTask> timer;  // operator timers / sources
    double carry = 0.0;  // fractional records owed by a source
    /// Skewed sources: the runtime's sampler for their (key_count, key_skew).
    const ZipfSampler* zipf = nullptr;
    /// Sources: whether any consumer reads the value column; when not, the
    /// source draws keys only and fills the column with value_mean.
    bool values_live = true;
    /// Cached downcast: non-null when this vertex runs a stateless
    /// operator, whose pass rewrites the batch in place.
    const StatelessOperator* stateless = nullptr;
    /// Stateless vertices: a value map whose output nobody reads skips its
    /// pass (its simulated delay still runs).
    bool skip_pass = false;
  };

  struct GeoBatcher {
    Edge edge;
    RecordBatch pending;
    SimTime oldest = SimTime::epoch();
    bool in_flight = false;  // one WAN batch at a time per edge
    std::size_t in_flight_records = 0;
    std::deque<RecordBatch> backlog;
    std::unique_ptr<sim::PeriodicTask> flusher;
  };

  /// One resolved out-edge: local edges carry a null `geo`, WAN edges point
  /// straight at their batcher.
  struct OutEdge {
    Edge edge;
    GeoBatcher* geo = nullptr;
    obs::Counter* sent = nullptr;  // records over this edge (obs only)
  };

  /// Per-vertex observability cells, index-aligned with states_. All null
  /// when obs is off.
  struct VertexObs {
    obs::Counter* arrived = nullptr;
    obs::Counter* consumed = nullptr;
    obs::Counter* produced = nullptr;
    obs::Gauge* watermark = nullptr;  // sinks: max event time seen, seconds
  };

  void emit_source(VertexId v);
  void deliver(const OutEdge& oe, RecordBatch batch);
  void enqueue(VertexId v, int port, RecordBatch batch);
  void process_next(VertexId v);
  void dispatch_outputs(VertexId v, RecordBatch out);
  void flush_geo(GeoBatcher& b);
  void pump_geo(GeoBatcher& b);

  /// Simulated time to burn `work_units` on `site`'s VM right now.
  [[nodiscard]] SimDuration compute_delay(cloud::Region site, double work_units) const;

  /// Batch pool: drained batches park here and are handed back out with
  /// their buffers intact, so the steady state allocates nothing.
  [[nodiscard]] RecordBatch acquire_batch();
  void recycle(RecordBatch&& batch);

  cloud::CloudProvider& provider_;
  sim::SimEngine& engine_;
  JobGraph graph_;
  TransferBackend& backend_;
  RuntimeConfig config_;
  Rng rng_;

  std::vector<VertexState> states_;
  std::vector<std::unique_ptr<GeoBatcher>> geo_;
  /// Per-vertex resolved adjacency, built at start().
  std::vector<std::vector<OutEdge>> out_edges_;
  std::vector<RecordBatch> pool_;
  /// One sampler per distinct (key_count, key_skew), shared by the sources
  /// that draw from it: its tables are built once and stay cache-warm.
  std::map<std::pair<std::uint64_t, double>, ZipfSampler> samplers_;
  std::vector<std::optional<cloud::VmId>> site_vms_;  // sized topology regions
  WanStats wan_;
  std::vector<VertexObs> vobs_;  // built at start(); empty when obs is off
  obs::Counter* obs_wan_batches_ = nullptr;
  obs::Counter* obs_wan_bytes_ = nullptr;
  obs::Counter* obs_wan_failures_ = nullptr;
  obs::Counter* obs_wan_records_recv_ = nullptr;
  obs::Counter* obs_wan_records_lost_ = nullptr;
  obs::Counter* obs_stateless_passes_ = nullptr;
  bool running_ = false;
  bool started_ = false;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sage::stream
