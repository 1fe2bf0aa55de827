// Dataflow job graphs.
//
// A job is a DAG of vertices — sources, operators, sinks — each pinned to a
// cloud region (site). Edges between vertices on the same site are local
// (in-memory handoff plus CPU cost); edges crossing sites become wide-area
// transfers handled by the runtime's pluggable TransferBackend, which is
// where SAGE's cost/time-aware engine (or a baseline) slots in.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/region.hpp"
#include "common/units.hpp"
#include "stream/operator.hpp"

namespace sage::stream {

using VertexId = std::uint32_t;

enum class VertexKind : std::uint8_t { kSource, kOperator, kSink };

/// Synthetic source description. Sources emit batches every emit_interval;
/// record count follows the configured rate with fractional accumulation.
/// Values are N(value_mean, value_stddev) draws while some consumer reads
/// them (JobGraph::live_value_outputs; an operator that does not say
/// otherwise reads). When none does, the source draws keys only and fills
/// the value column with value_mean, so the keys a source draws depend on
/// whether its values are live, which is fixed per graph at start().
struct SourceSpec {
  double records_per_sec = 1000.0;
  Bytes record_size = Bytes::of(200);
  /// Keys are drawn from [0, key_count), Zipf-skewed when key_skew > 0.
  std::uint64_t key_count = 100;
  double key_skew = 0.0;
  SimDuration emit_interval = SimDuration::millis(100);
  double value_mean = 0.0;
  double value_stddev = 1.0;
};

struct Vertex {
  VertexId id = 0;
  std::string name;
  VertexKind kind = VertexKind::kOperator;
  cloud::Region site = cloud::Region::kNorthEU;
  std::shared_ptr<Operator> op;  // kOperator only
  SourceSpec source;             // kSource only
};

struct Edge {
  VertexId from = 0;
  VertexId to = 0;
  int port = 0;
};

class JobGraph {
 public:
  VertexId add_source(std::string name, cloud::Region site, SourceSpec spec);
  VertexId add_operator(std::string name, cloud::Region site, std::shared_ptr<Operator> op);
  VertexId add_sink(std::string name, cloud::Region site);

  /// Connect from -> to. `port` selects the input port on `to` (joins use
  /// ports 0 and 1; everything else only port 0).
  void connect(VertexId from, VertexId to, int port = 0);

  /// Re-pin a vertex to another site (used by placement policies).
  void assign(VertexId v, cloud::Region site);

  [[nodiscard]] const std::vector<Vertex>& vertices() const { return vertices_; }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }
  [[nodiscard]] const Vertex& vertex(VertexId v) const;
  [[nodiscard]] std::vector<cloud::Region> sites_used() const;
  /// Edges whose endpoints live on different sites.
  [[nodiscard]] std::vector<Edge> wan_edges() const;
  /// Every vertex id in a topological order (Kahn's algorithm); throws
  /// CheckFailure when the graph has a cycle.
  [[nodiscard]] std::vector<VertexId> topological_order() const;

  /// Throws CheckFailure on malformed graphs: cycles, dangling ids, sinks
  /// with outputs, sources with inputs, a port-1 edge into a non-join, or
  /// two vertices sharing a name (the runtime's per-vertex and per-edge obs
  /// cells key on the name).
  void validate() const;

  /// Per vertex, whether anything downstream reads the value column of
  /// what it outputs. Walks a topological order backwards: a sink reads no
  /// values, a WAN edge ships records without reading them (it passes its
  /// consumer's answer through), and an operator answers
  /// Operator::uses_input_values given its own output's liveness. A vertex
  /// with several consumers is live when any of them reads.
  [[nodiscard]] std::vector<bool> live_value_outputs() const;

 private:
  std::vector<Vertex> vertices_;
  std::vector<Edge> edges_;
};

}  // namespace sage::stream
