// Reusable invariant checker for chaos (fault-injection) runs.
//
// A ChaosInvariants instance accumulates violations as strings instead of
// asserting inline, so callers can attach the context a failure needs for a
// one-line repro (seed + FaultPlan::describe()) before failing the test.
// Every check holds for ARBITRARY fault schedules — outages, partitions,
// aborted flows, poisoned estimators — because each one is conservation or
// monotonicity, not a statement about the healthy path:
//
//   * fabric flows:  started == completed + failed + cancelled + active
//   * fabric bytes:  moved + forgiven + aborted <= offered, with equality
//                    once no flow is active
//   * link vs egress: per-pair-link byte counters (cross-region edges) sum
//                    exactly to the fabric's own egress accounting
//   * epochs:        MonitoringService::sample_epoch() never decreases
//   * events:        scheduled == fired + cancelled + live, and at teardown
//                    no more than the caller-allowed number of live events
//                    remain (0 for drained worlds)
//
// Future robustness PRs plug their scenarios into this header rather than
// re-deriving the accounting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/fabric.hpp"
#include "cloud/topology.hpp"
#include "monitor/monitoring.hpp"
#include "obs/obs.hpp"
#include "simcore/engine.hpp"
#include "simcore/sharded_engine.hpp"
#include "stream/graph.hpp"
#include "stream/runtime.hpp"

namespace sage::testing {

class ChaosInvariants {
 public:
  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::string report() const {
    std::string out;
    for (const std::string& v : violations_) {
      out += "  invariant violated: " + v + "\n";
    }
    return out;
  }

  /// Fabric conservation from the metrics registry. Call at any event
  /// boundary (engine quiescent or between steps); requires the engine to
  /// have observability enabled (no-op otherwise — there are no counters to
  /// balance). The engine must be the one driving `fabric`.
  void check_fabric(const sim::SimEngine& engine, const cloud::Fabric& fabric) {
    const obs::Observability* o = engine.obs();
    if (o == nullptr) return;
    const auto& m = o->metrics();
    const auto count = [&](const char* name) -> std::uint64_t {
      const obs::Counter* c = m.find_counter(name);
      return c != nullptr ? c->value() : 0u;
    };

    const std::uint64_t started = count("fabric.flows.started");
    const std::uint64_t done = count("fabric.flows.completed") +
                               count("fabric.flows.failed") +
                               count("fabric.flows.cancelled");
    const std::uint64_t active = fabric.active_flow_count();
    if (started != done + active) {
      fail("fabric flows: started=" + std::to_string(started) +
           " != finished=" + std::to_string(done) + " + active=" +
           std::to_string(active));
    }

    const std::uint64_t offered = count("fabric.bytes.offered");
    const std::uint64_t settled = count("fabric.bytes.moved") +
                                  count("fabric.bytes.forgiven") +
                                  count("fabric.bytes.aborted");
    if (settled > offered) {
      fail("fabric bytes: moved+forgiven+aborted=" + std::to_string(settled) +
           " exceeds offered=" + std::to_string(offered));
    }
    if (active == 0 && settled != offered) {
      fail("fabric bytes at quiescence: moved+forgiven+aborted=" +
           std::to_string(settled) + " != offered=" + std::to_string(offered));
    }

    // The cross-region per-link byte counters and the fabric's egress meter
    // advance in the same step, so they agree exactly — even mid-run, even
    // with flows stranded at rate zero by a downed link.
    std::uint64_t cross_link_bytes = 0;
    for (const cloud::Topology::Edge& e : fabric.topology().edges()) {
      if (e.src == e.dst) continue;  // intra-DC byte counters are not egress
      const std::string label = std::string(cloud::region_name(e.src)) + "->" +
                                std::string(cloud::region_name(e.dst));
      if (const obs::Counter* c = m.find_counter("fabric.link.bytes", {{"link", label}})) {
        cross_link_bytes += c->value();
      }
    }
    Bytes egress = Bytes::zero();
    for (std::size_t r = 0; r < fabric.topology().region_count(); ++r) {
      egress += fabric.egress_from(cloud::make_region(r));
    }
    if (cross_link_bytes != static_cast<std::uint64_t>(egress.count())) {
      fail("fabric egress: cross-link bytes=" + std::to_string(cross_link_bytes) +
           " != egress=" + std::to_string(egress.count()));
    }
  }

  /// Stream record conservation over the runtime's graph: per-vertex
  /// arrivals are consumed or queued, and globally every source record is
  /// at a sink, retained in an operator, queued, riding the WAN, or
  /// recorded lost — faults may grow `lost`, but nothing is allowed to
  /// vanish unaccounted. Requires obs on the engine.
  void check_stream(const sim::SimEngine& engine, stream::StreamRuntime& runtime) {
    const obs::Observability* o = engine.obs();
    if (o == nullptr) return;
    const auto& m = o->metrics();
    const auto vcount = [&](const char* name, const std::string& vertex) -> std::uint64_t {
      const obs::Counter* c = m.find_counter(name, {{"vertex", vertex}});
      return c != nullptr ? c->value() : 0u;
    };
    const auto gcount = [&](const char* name) -> std::uint64_t {
      const obs::Counter* c = m.find_counter(name);
      return c != nullptr ? c->value() : 0u;
    };

    const stream::JobGraph& graph = runtime.graph();
    std::uint64_t source_produced = 0;
    std::uint64_t sink_arrived = 0;
    std::uint64_t retained_in_ops = 0;
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
          break;
        case stream::VertexKind::kOperator: {
          const std::uint64_t depth = runtime.queue_depth(v.id);
          if (arrived != consumed + depth) {
            fail("stream vertex " + v.name + ": arrived=" + std::to_string(arrived) +
                 " != consumed=" + std::to_string(consumed) + " + queued=" +
                 std::to_string(depth));
          }
          if (consumed < produced) {
            fail("stream vertex " + v.name + ": produced=" + std::to_string(produced) +
                 " exceeds consumed=" + std::to_string(consumed));
          }
          retained_in_ops += consumed - produced;
          queued += depth;
          break;
        }
      }
    }

    std::uint64_t wan_sent = 0;
    for (const stream::Edge& e : graph.edges()) {
      const stream::Vertex& from = graph.vertex(e.from);
      const stream::Vertex& to = graph.vertex(e.to);
      const obs::Counter* sent =
          m.find_counter("stream.edge.records", {{"edge", from.name + "->" + to.name}});
      if (sent == nullptr) continue;  // edge never carried a record
      if (from.site == to.site) {
        if (sent->value() != vcount("stream.records.arrived", to.name)) {
          fail("stream local edge " + from.name + "->" + to.name + ": sent=" +
               std::to_string(sent->value()) + " != arrived downstream");
        }
      } else {
        wan_sent += sent->value();
      }
    }
    const std::uint64_t wan_recv = gcount("stream.wan.records.recv");
    const std::uint64_t wan_lost = gcount("stream.wan.records.lost");
    const std::uint64_t wan_pending = runtime.geo_pending_records();
    if (wan_sent != wan_recv + wan_lost + wan_pending) {
      fail("stream wan: sent=" + std::to_string(wan_sent) + " != recv=" +
           std::to_string(wan_recv) + " + lost=" + std::to_string(wan_lost) +
           " + pending=" + std::to_string(wan_pending));
    }
    if (source_produced != sink_arrived + retained_in_ops + queued + wan_pending + wan_lost) {
      fail("stream records: produced=" + std::to_string(source_produced) +
           " != sink=" + std::to_string(sink_arrived) + " + retained=" +
           std::to_string(retained_in_ops) + " + queued=" + std::to_string(queued) +
           " + wan_pending=" + std::to_string(wan_pending) + " + wan_lost=" +
           std::to_string(wan_lost));
    }
  }

  /// Sample-epoch monotonicity. Call repeatedly over a run (e.g. from a
  /// periodic task or between steps); each call also verifies the snapshot
  /// epoch never runs ahead of the service epoch.
  void check_epoch(const monitor::MonitoringService& monitoring) {
    const std::uint64_t epoch = monitoring.sample_epoch();
    if (epoch < last_epoch_) {
      fail("sample epoch went backwards: " + std::to_string(last_epoch_) +
           " -> " + std::to_string(epoch));
    }
    last_epoch_ = epoch;
    const std::uint64_t snap = monitoring.snapshot().epoch;
    if (snap > epoch) {
      fail("snapshot epoch " + std::to_string(snap) +
           " ahead of service epoch " + std::to_string(epoch));
    }
  }

  /// Event accounting; call any time. `allowed_live` is the number of live
  /// events a drained world may legitimately hold (0 after a full drain;
  /// more while periodic tasks are still armed).
  void check_engine(const sim::SimEngine& engine, std::uint64_t allowed_live) {
    check_event_counts(engine.events_scheduled(), engine.events_fired(),
                       engine.events_cancelled(), engine.live_events(),
                       allowed_live);
  }

  /// Sharded variant over the aggregate lane counters (engine quiescent).
  /// Non-const because shard() exposes the mutable lane engines.
  void check_engine(sim::ShardedSimEngine& engine, std::uint64_t allowed_live) {
    std::size_t live = 0;
    for (std::size_t s = 0; s < engine.lane_count(); ++s) {
      live += engine.shard(s).live_events();
    }
    check_event_counts(engine.events_scheduled(), engine.events_fired(),
                       engine.events_cancelled(), live, allowed_live);
  }

 private:
  void fail(std::string msg) { violations_.push_back(std::move(msg)); }

  void check_event_counts(std::uint64_t scheduled, std::uint64_t fired,
                          std::uint64_t cancelled, std::uint64_t live,
                          std::uint64_t allowed_live) {
    if (scheduled != fired + cancelled + live) {
      fail("engine events: scheduled=" + std::to_string(scheduled) +
           " != fired=" + std::to_string(fired) + " + cancelled=" +
           std::to_string(cancelled) + " + live=" + std::to_string(live));
    }
    if (live > allowed_live) {
      fail("leaked events at teardown: " + std::to_string(live) + " live, " +
           std::to_string(allowed_live) + " allowed");
    }
  }

  std::vector<std::string> violations_;
  std::uint64_t last_epoch_ = 0;
};

}  // namespace sage::testing
