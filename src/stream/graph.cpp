#include "stream/graph.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_set>

#include "common/check.hpp"

namespace sage::stream {

VertexId JobGraph::add_source(std::string name, cloud::Region site, SourceSpec spec) {
  SAGE_CHECK(spec.records_per_sec > 0.0);
  SAGE_CHECK(spec.emit_interval > SimDuration::zero());
  SAGE_CHECK(spec.key_count >= 1);
  Vertex v;
  v.id = static_cast<VertexId>(vertices_.size());
  v.name = std::move(name);
  v.kind = VertexKind::kSource;
  v.site = site;
  v.source = spec;
  vertices_.push_back(std::move(v));
  return vertices_.back().id;
}

VertexId JobGraph::add_operator(std::string name, cloud::Region site,
                                std::shared_ptr<Operator> op) {
  SAGE_CHECK(op != nullptr);
  Vertex v;
  v.id = static_cast<VertexId>(vertices_.size());
  v.name = std::move(name);
  v.kind = VertexKind::kOperator;
  v.site = site;
  v.op = std::move(op);
  vertices_.push_back(std::move(v));
  return vertices_.back().id;
}

VertexId JobGraph::add_sink(std::string name, cloud::Region site) {
  Vertex v;
  v.id = static_cast<VertexId>(vertices_.size());
  v.name = std::move(name);
  v.kind = VertexKind::kSink;
  v.site = site;
  vertices_.push_back(std::move(v));
  return vertices_.back().id;
}

void JobGraph::connect(VertexId from, VertexId to, int port) {
  SAGE_CHECK(from < vertices_.size() && to < vertices_.size());
  SAGE_CHECK(port == 0 || port == 1);
  edges_.push_back(Edge{from, to, port});
}

void JobGraph::assign(VertexId v, cloud::Region site) {
  SAGE_CHECK(v < vertices_.size());
  vertices_[v].site = site;
}

const Vertex& JobGraph::vertex(VertexId v) const {
  SAGE_CHECK(v < vertices_.size());
  return vertices_[v];
}

std::vector<cloud::Region> JobGraph::sites_used() const {
  std::vector<cloud::Region> sites;
  for (const Vertex& v : vertices_) {
    if (std::find(sites.begin(), sites.end(), v.site) == sites.end()) {
      sites.push_back(v.site);
    }
  }
  return sites;
}

std::vector<Edge> JobGraph::wan_edges() const {
  std::vector<Edge> out;
  for (const Edge& e : edges_) {
    if (vertices_[e.from].site != vertices_[e.to].site) out.push_back(e);
  }
  return out;
}

void JobGraph::validate() const {
  SAGE_CHECK_MSG(!vertices_.empty(), "empty job graph");
  std::unordered_set<std::string_view> names;
  for (const Vertex& v : vertices_) {
    SAGE_CHECK_MSG(names.insert(v.name).second, "duplicate vertex name " + v.name);
  }
  for (const Edge& e : edges_) {
    SAGE_CHECK(e.from < vertices_.size() && e.to < vertices_.size());
    SAGE_CHECK_MSG(vertices_[e.from].kind != VertexKind::kSink, "sinks have no outputs");
    SAGE_CHECK_MSG(vertices_[e.to].kind != VertexKind::kSource, "sources have no inputs");
    if (e.port == 1) {
      const Vertex& to = vertices_[e.to];
      SAGE_CHECK_MSG(to.kind == VertexKind::kOperator &&
                         dynamic_cast<WindowJoinOperator*>(to.op.get()) != nullptr,
                     "port 1 is only valid on join operators");
    }
  }
  (void)topological_order();
}

std::vector<VertexId> JobGraph::topological_order() const {
  // Kahn's algorithm: every vertex must be reachable in a topological order
  // (i.e. the graph is acyclic).
  std::vector<int> indegree(vertices_.size(), 0);
  for (const Edge& e : edges_) ++indegree[e.to];
  std::vector<VertexId> queue;
  for (const Vertex& v : vertices_) {
    if (indegree[v.id] == 0) queue.push_back(v.id);
  }
  std::vector<VertexId> order;
  order.reserve(vertices_.size());
  while (!queue.empty()) {
    const VertexId v = queue.back();
    queue.pop_back();
    order.push_back(v);
    for (const Edge& e : edges_) {
      if (e.from == v && --indegree[e.to] == 0) queue.push_back(e.to);
    }
  }
  SAGE_CHECK_MSG(order.size() == vertices_.size(), "job graph contains a cycle");
  return order;
}

std::vector<bool> JobGraph::live_value_outputs() const {
  const std::vector<VertexId> order = topological_order();
  std::vector<bool> out_live(vertices_.size(), false);
  // Every consumer comes after its producers in `order`, so walking it
  // backwards settles each vertex's output before its inputs are asked.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Vertex& to = vertices_[*it];
    if (to.kind != VertexKind::kOperator || !to.op->uses_input_values(out_live[to.id])) {
      continue;
    }
    for (const Edge& e : edges_) {
      if (e.to == to.id) out_live[e.from] = true;
    }
  }
  return out_live;
}

}  // namespace sage::stream
