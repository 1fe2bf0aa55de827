#include "core/placement.hpp"

#include <vector>

namespace sage::core {

void auto_place(stream::JobGraph& graph, cloud::Region aggregation_site) {
  graph.validate();
  for (const stream::VertexId v : graph.topological_order()) {
    const stream::Vertex& vx = graph.vertex(v);
    if (vx.kind != stream::VertexKind::kOperator) continue;

    bool has_input = false;
    bool single_site = true;
    cloud::Region input_site = aggregation_site;
    for (const auto& e : graph.edges()) {
      if (e.to != v) continue;
      const cloud::Region s = graph.vertex(e.from).site;
      if (!has_input) {
        input_site = s;
        has_input = true;
      } else if (s != input_site) {
        single_site = false;
      }
    }
    graph.assign(v, (has_input && single_site) ? input_site : aggregation_site);
  }
}

double estimate_wan_bytes_per_sec(const stream::JobGraph& graph, double reduction_factor) {
  // Propagate each source's byte rate through the DAG; operators are
  // assumed to shrink their input by `reduction_factor` (windows/filters
  // reduce, which is why pushing them upstream of the WAN pays).
  const auto order = graph.topological_order();
  std::vector<double> rate(graph.vertices().size(), 0.0);
  double wan = 0.0;
  for (const stream::VertexId v : order) {
    const stream::Vertex& vx = graph.vertex(v);
    double out_rate = 0.0;
    if (vx.kind == stream::VertexKind::kSource) {
      out_rate = vx.source.records_per_sec *
                 static_cast<double>(vx.source.record_size.count());
    } else if (vx.kind == stream::VertexKind::kOperator) {
      out_rate = rate[v] * reduction_factor;
    }
    for (const auto& e : graph.edges()) {
      if (e.from != v) continue;
      rate[e.to] += out_rate;
      if (graph.vertex(e.to).site != vx.site) wan += out_rate;
    }
  }
  return wan;
}

}  // namespace sage::core
