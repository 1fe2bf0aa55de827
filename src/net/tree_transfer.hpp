// Cut-through tree multicast: one dataset, many destinations.
//
// A TreeTransfer pushes a dataset down a tree of VMs with chunk-level
// pipelining: the moment a chunk lands at a node it is forwarded to each of
// the node's children, so interior sites relay while they are still
// receiving — the whole tree streams concurrently and the completion of
// the deepest leaf approaches size / min(edge rate) instead of the sum of
// full store-and-forward stages. Each tree edge runs a bounded number of
// parallel chunk flows (streams), and a failed edge flow retries with
// attempt accounting like the point-to-point GeoTransfer.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cloud/provider.hpp"
#include "net/transfer.hpp"

namespace sage::net {

/// Tree shape: node 0 is the root (data source); every other node names
/// its parent. Parents must precede children in the vector.
struct TreeNode {
  cloud::VmId vm = 0;
  int parent = -1;  // -1 for the root
};

struct TreeResult {
  bool ok = false;
  Bytes size;
  SimTime started;
  SimTime finished;
  /// Completion offset of each node (index-aligned with the tree spec;
  /// entry 0 is zero — the root starts with the data).
  std::vector<SimDuration> node_completion;
  int edge_failures = 0;

  [[nodiscard]] SimDuration elapsed() const { return finished - started; }
};

class TreeTransfer {
 public:
  using CompletionFn = std::function<void(const TreeResult&)>;

  TreeTransfer(cloud::CloudProvider& provider, Bytes size, std::vector<TreeNode> tree,
               TransferConfig config, CompletionFn on_done);
  ~TreeTransfer();
  TreeTransfer(const TreeTransfer&) = delete;
  TreeTransfer& operator=(const TreeTransfer&) = delete;

  void start();
  void cancel();

  [[nodiscard]] bool finished() const { return finished_; }

 private:
  struct EdgeState {
    int node = 0;  // receiving node index
    int free_slots = 0;
    std::deque<int> waiting;  // chunk indices ready at the parent
    int attempts = 0;         // failure-driven retries on this edge
  };

  void pump(std::size_t edge_idx);
  void on_arrival(int node, int chunk);
  void finish(bool ok);

  cloud::CloudProvider& provider_;
  sim::SimEngine& engine_;
  Bytes size_;
  std::vector<TreeNode> tree_;
  TransferConfig config_;
  CompletionFn on_done_;

  std::vector<Bytes> chunk_sizes_;
  /// edges_[i] receives into tree node edges_[i].node; indexed per child.
  std::vector<EdgeState> edges_;
  /// received_[node] counts chunks landed at that node.
  std::vector<int> received_;
  std::vector<std::vector<bool>> has_chunk_;
  std::vector<SimDuration> completion_;
  std::vector<cloud::FlowId> active_flows_;
  SimTime started_;
  int nodes_complete_ = 0;
  int edge_failures_ = 0;
  bool running_ = false;
  bool finished_ = false;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  // Observability (null when the engine has obs disabled).
  obs::Counter* obs_started_ = nullptr;
  obs::Counter* obs_completed_ = nullptr;
  obs::Counter* obs_failed_ = nullptr;
  obs::Counter* obs_edge_failures_ = nullptr;
  obs::Counter* obs_bytes_ = nullptr;  // bytes landed across all tree nodes
};

}  // namespace sage::net
