// Geo-distributed transfer substrate (the system's Transfer Agent layer).
//
// A GeoTransfer moves one logical dataset from a source VM to a destination
// VM over one or more *lanes*. A lane is a path of VMs:
//
//     src ── [intermediate forwarders, possibly in other datacenters] ── dst
//
// and data moves as fixed-size chunks with:
//   * store-and-forward relaying with per-hop pipelining (chunk i+1 crosses
//     hop 1 while chunk i crosses hop 2);
//   * a bounded number of parallel streams per hop (end-system parallelism);
//   * per-chunk content hashes and receiver-side deduplication;
//   * application-level end-to-end acknowledgements (recovering from
//     intermediate-node failures that TCP alone cannot see);
//   * timeout-driven retransmission — a chunk not acknowledged in time is
//     re-sent, and whichever copy lands second is dropped as a duplicate;
//   * intrusiveness throttling: each sending VM caps the aggregate rate of
//     the transfer's flows at (intrusiveness × NIC).
//
// Lanes draw chunks from a single shared pool as their first-hop slots free
// up, so faster lanes automatically carry more data. This pull model is the
// data-plane half of environment awareness: the control plane (sage_sched /
// sage_core) decides *which* lanes exist; the pool balances load *across*
// them. Environment-oblivious baselines instead use static partitioning
// (see sage_baselines).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cloud/provider.hpp"
#include "common/units.hpp"
#include "obs/obs.hpp"

namespace sage::net {

struct TransferConfig {
  /// Fragmentation granularity.
  Bytes chunk_size = Bytes::mib(4);
  /// Concurrent chunk flows per hop sender (parallel streams).
  int streams_per_hop = 2;
  /// Fraction of each VM's resources the transfer may use, in (0, 1].
  /// 1.0 = dedicated transfer VMs (the comparison setting); shared-VM
  /// deployments use 0.05-0.20 (the intrusiveness experiment's range).
  double intrusiveness = 1.0;
  /// Give up on a chunk after this many failed/timed-out attempts.
  int max_attempts = 5;
};

struct TransferStats {
  int chunks_total = 0;
  int chunks_delivered = 0;
  int retransmissions = 0;
  int duplicates_dropped = 0;
  int hop_failures = 0;
};

struct TransferResult {
  bool ok = false;
  Bytes size;
  SimTime started;
  SimTime finished;
  TransferStats stats;

  [[nodiscard]] SimDuration elapsed() const { return finished - started; }
  [[nodiscard]] ByteRate throughput() const { return size / elapsed(); }
};

/// One relay path for a transfer. `path` must start at the transfer's source
/// VM and end at its destination VM, with zero or more forwarders between.
struct Lane {
  std::vector<cloud::VmId> path;
};

class GeoTransfer {
 public:
  using CompletionFn = std::function<void(const TransferResult&)>;

  /// Build a transfer of `size` bytes. All lanes must share front()==src and
  /// back()==dst. Call start() to begin.
  GeoTransfer(cloud::CloudProvider& provider, Bytes size, std::vector<Lane> lanes,
              TransferConfig config, CompletionFn on_done);
  ~GeoTransfer();
  GeoTransfer(const GeoTransfer&) = delete;
  GeoTransfer& operator=(const GeoTransfer&) = delete;

  void start();

  /// Abort; completion fires with ok == false.
  void cancel();

  /// Replace the lane set mid-flight (decision-manager adaptation). Chunks
  /// already in flight complete on their old paths; queued work drains
  /// through the new lanes.
  void reset_lanes(std::vector<Lane> lanes);

  [[nodiscard]] Bytes delivered() const;
  [[nodiscard]] Bytes total() const { return size_; }
  [[nodiscard]] const TransferStats& stats() const { return stats_; }
  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] bool finished() const { return finished_; }
  /// Bytes delivered per current lane index (diagnostics; a reset_lanes
  /// starts the counters over for the new lane set).
  [[nodiscard]] const std::vector<Bytes>& lane_bytes() const;

 private:
  struct HopState {
    int free_slots = 0;
    std::deque<int> waiting;  // chunks parked at this hop's sender
  };

  /// Heap-allocated and shared with in-flight chunk callbacks: a lane set
  /// swap (reset_lanes) retires the old states but chunks already flying
  /// on them finish against the object they started on.
  struct LaneState {
    Lane lane;
    bool dead = false;
    bool retired = false;  // replaced by reset_lanes; not a failure
    std::vector<HopState> hops;  // one per path edge
    /// Chunks currently inside this lane (flying or parked at a relay).
    /// Admission from the shared pool is capped at the lane's pipeline
    /// depth, so a lane only accepts work as fast as it drains end-to-end
    /// — otherwise a fast first hop would pile chunks behind a slow WAN
    /// hop and defeat the pool's load balancing.
    int in_lane = 0;
    Bytes bytes_delivered;
  };

  struct ChunkState {
    Bytes size;
    std::uint64_t hash = 0;
    bool delivered = false;
    bool acked = false;
    int attempts = 0;
    int in_flight = 0;  // concurrent copies (original + retransmits)
  };

  void pump();
  void pump_hop(const std::shared_ptr<LaneState>& lane, std::size_t hop);
  void send_hop(const std::shared_ptr<LaneState>& lane, int chunk, std::size_t hop);
  void arm_timeout(int chunk);
  void on_delivered(LaneState& lane, int chunk);
  void kill_lane(LaneState& lane);
  void drain_waiting(LaneState& lane);
  void requeue(int chunk, bool count_attempt);
  void maybe_finish();
  void finish(bool ok);
  [[nodiscard]] SimDuration chunk_timeout() const;
  void bind_obs();

  cloud::CloudProvider& provider_;
  sim::SimEngine& engine_;
  Bytes size_;
  TransferConfig config_;
  CompletionFn on_done_;

  std::vector<std::shared_ptr<LaneState>> lanes_;
  std::vector<ChunkState> chunks_;
  std::deque<int> pool_;  // chunk indices awaiting (re)transmission
  mutable std::vector<Bytes> lane_bytes_;  // rebuilt from lanes_ on access
  std::vector<cloud::FlowId> active_flows_;
  TransferStats stats_;
  SimTime started_;
  Bytes delivered_bytes_;
  bool running_ = false;
  bool finished_ = false;
  int completed_ = 0;  // chunks acknowledged
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  // Observability (all null when the engine has obs disabled).
  obs::Counter* obs_started_ = nullptr;
  obs::Counter* obs_completed_ = nullptr;
  obs::Counter* obs_failed_ = nullptr;
  obs::Counter* obs_bytes_ = nullptr;
  obs::Counter* obs_chunks_ = nullptr;
  obs::Counter* obs_retransmissions_ = nullptr;
  obs::Counter* obs_duplicates_ = nullptr;
  obs::Counter* obs_hop_failures_ = nullptr;
  obs::Histogram* obs_throughput_ = nullptr;
};

/// Convenience: single-lane direct transfer src -> dst.
[[nodiscard]] std::vector<Lane> direct_lane(cloud::VmId src, cloud::VmId dst);

/// Fragmentation: `size` cut into equal `chunk_size` chunks, the last one
/// carrying the remainder.
[[nodiscard]] std::vector<Bytes> chunk_sizes(Bytes size, Bytes chunk_size);

/// Options for one chunk flow sent by `sender`: its demand is capped at
/// NIC × intrusiveness / streams_per_hop, so the sender's parallel streams
/// together stay within the transfer's share of the VM.
[[nodiscard]] cloud::FlowOptions hop_flow_options(const cloud::CloudProvider& provider,
                                                  cloud::VmId sender,
                                                  const TransferConfig& config);

}  // namespace sage::net
