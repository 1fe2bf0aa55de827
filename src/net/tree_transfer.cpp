#include "net/tree_transfer.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace sage::net {

TreeTransfer::TreeTransfer(cloud::CloudProvider& provider, Bytes size,
                           std::vector<TreeNode> tree, TransferConfig config,
                           CompletionFn on_done)
    : provider_(provider),
      engine_(provider.engine()),
      size_(size),
      tree_(std::move(tree)),
      config_(config),
      on_done_(std::move(on_done)) {
  SAGE_CHECK(size > Bytes::zero());
  SAGE_CHECK(on_done_ != nullptr);
  SAGE_CHECK_MSG(tree_.size() >= 2, "a tree transfer needs a root and a destination");
  SAGE_CHECK_MSG(tree_[0].parent == -1, "node 0 must be the root");
  for (std::size_t i = 1; i < tree_.size(); ++i) {
    SAGE_CHECK_MSG(tree_[i].parent >= 0 && tree_[i].parent < static_cast<int>(i),
                   "parents must precede children");
  }

  chunk_sizes_ = chunk_sizes(size, config_.chunk_size);
  received_.assign(tree_.size(), 0);
  completion_.assign(tree_.size(), SimDuration::zero());
  has_chunk_.assign(tree_.size(), std::vector<bool>(chunk_sizes_.size(), false));
  for (std::size_t i = 1; i < tree_.size(); ++i) {
    EdgeState edge;
    edge.node = static_cast<int>(i);
    edge.free_slots = config_.streams_per_hop;
    edges_.push_back(std::move(edge));
  }

  if (obs::Observability* o = engine_.obs()) {
    auto& m = o->metrics();
    obs_started_ = m.counter("tree_transfer.started");
    obs_completed_ = m.counter("tree_transfer.completed");
    obs_failed_ = m.counter("tree_transfer.failed");
    obs_edge_failures_ = m.counter("tree_transfer.edge_failures");
    obs_bytes_ = m.counter("tree_transfer.bytes.delivered");
  }
}

TreeTransfer::~TreeTransfer() { *alive_ = false; }

void TreeTransfer::start() {
  SAGE_CHECK_MSG(!running_ && !finished_, "start() is one-shot");
  running_ = true;
  started_ = engine_.now();
  if (obs_started_ != nullptr) obs_started_->add();
  // The root owns every chunk; every root-child edge may begin immediately.
  std::fill(has_chunk_[0].begin(), has_chunk_[0].end(), true);
  received_[0] = static_cast<int>(chunk_sizes_.size());
  ++nodes_complete_;
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    if (tree_[static_cast<std::size_t>(edges_[e].node)].parent == 0) {
      for (int c = 0; c < static_cast<int>(chunk_sizes_.size()); ++c) {
        edges_[e].waiting.push_back(c);
      }
      pump(e);
    }
  }
}

void TreeTransfer::cancel() {
  if (finished_) return;
  finish(false);
}

void TreeTransfer::pump(std::size_t edge_idx) {
  if (!running_ || finished_) return;
  EdgeState& edge = edges_[edge_idx];
  const int node = edge.node;
  const cloud::VmId parent_vm =
      tree_[static_cast<std::size_t>(tree_[static_cast<std::size_t>(node)].parent)].vm;
  const cloud::VmId child_vm = tree_[static_cast<std::size_t>(node)].vm;

  while (edge.free_slots > 0 && !edge.waiting.empty()) {
    const int chunk = edge.waiting.front();
    edge.waiting.pop_front();
    if (has_chunk_[static_cast<std::size_t>(node)][static_cast<std::size_t>(chunk)]) {
      continue;  // duplicate from a retry
    }
    if (!provider_.is_active(parent_vm) || !provider_.is_active(child_vm)) {
      ++edge_failures_;
      if (obs_edge_failures_ != nullptr) obs_edge_failures_->add();
      finish(false);
      return;
    }
    --edge.free_slots;

    auto alive = alive_;
    const cloud::FlowId fid = provider_.transfer(
        parent_vm, child_vm, chunk_sizes_[static_cast<std::size_t>(chunk)],
        hop_flow_options(provider_, parent_vm, config_),
        [this, alive, edge_idx, chunk](const cloud::FlowResult& r) {
          if (!*alive) return;
          std::erase(active_flows_, r.id);
          if (finished_) return;
          EdgeState& e = edges_[edge_idx];
          ++e.free_slots;
          if (!r.ok()) {
            ++edge_failures_;
            if (obs_edge_failures_ != nullptr) obs_edge_failures_->add();
            if (++e.attempts >= config_.max_attempts) {
              finish(false);
              return;
            }
            e.waiting.push_back(chunk);  // retry this edge
          } else {
            on_arrival(e.node, chunk);
          }
          pump(edge_idx);
        });
    active_flows_.push_back(fid);
  }
}

void TreeTransfer::on_arrival(int node, int chunk) {
  auto& flags = has_chunk_[static_cast<std::size_t>(node)];
  if (flags[static_cast<std::size_t>(chunk)]) return;  // dedup
  flags[static_cast<std::size_t>(chunk)] = true;
  ++received_[static_cast<std::size_t>(node)];
  if (obs_bytes_ != nullptr) {
    obs_bytes_->add(
        static_cast<std::uint64_t>(chunk_sizes_[static_cast<std::size_t>(chunk)].count()));
  }

  // Cut-through: hand the fresh chunk to each of this node's child edges.
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    if (tree_[static_cast<std::size_t>(edges_[e].node)].parent == node) {
      edges_[e].waiting.push_back(chunk);
      pump(e);
    }
  }

  if (received_[static_cast<std::size_t>(node)] ==
      static_cast<int>(chunk_sizes_.size())) {
    completion_[static_cast<std::size_t>(node)] = engine_.now() - started_;
    if (++nodes_complete_ == static_cast<int>(tree_.size())) finish(true);
  }
}

void TreeTransfer::finish(bool ok) {
  if (finished_) return;
  finished_ = true;
  running_ = false;
  for (const cloud::FlowId fid : std::vector<cloud::FlowId>(active_flows_)) {
    provider_.fabric().cancel_flow(fid);
  }
  active_flows_.clear();
  TreeResult result;
  result.ok = ok;
  result.size = size_;
  result.started = started_;
  result.finished = engine_.now();
  result.node_completion = completion_;
  result.edge_failures = edge_failures_;
  if (obs_completed_ != nullptr) (ok ? obs_completed_ : obs_failed_)->add();
  on_done_(result);
}

}  // namespace sage::net
