#include "net/transfer.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace sage::net {

namespace {

/// An unacknowledged chunk is retransmitted after this multiple of its
/// service time at a conservative 1 MB/s, floored at kTimeoutFloor and
/// doubled per failed attempt (congestion backoff).
constexpr double kTimeoutFactor = 10.0;
constexpr SimDuration kTimeoutFloor = SimDuration::seconds(8);

}  // namespace

std::vector<Lane> direct_lane(cloud::VmId src, cloud::VmId dst) {
  return {Lane{{src, dst}}};
}

std::vector<Bytes> chunk_sizes(Bytes size, Bytes chunk_size) {
  SAGE_CHECK(chunk_size > Bytes::zero());
  std::vector<Bytes> sizes;
  for (Bytes lo = Bytes::zero(); lo < size; lo += chunk_size) {
    sizes.push_back(std::min(chunk_size, size - lo));
  }
  return sizes;
}

cloud::FlowOptions hop_flow_options(const cloud::CloudProvider& provider, cloud::VmId sender,
                                    const TransferConfig& config) {
  cloud::FlowOptions options;
  const ByteRate nic = cloud::vm_spec(provider.vm(sender).size).nic;
  options.demand_cap =
      nic * (config.intrusiveness / static_cast<double>(config.streams_per_hop));
  return options;
}

GeoTransfer::GeoTransfer(cloud::CloudProvider& provider, Bytes size, std::vector<Lane> lanes,
                         TransferConfig config, CompletionFn on_done)
    : provider_(provider),
      engine_(provider.engine()),
      size_(size),
      config_(config),
      on_done_(std::move(on_done)) {
  SAGE_CHECK(size > Bytes::zero());
  SAGE_CHECK(config_.streams_per_hop > 0);
  SAGE_CHECK(config_.intrusiveness > 0.0 && config_.intrusiveness <= 1.0);
  SAGE_CHECK(config_.max_attempts > 0);
  SAGE_CHECK(on_done_ != nullptr);
  SAGE_CHECK_MSG(!lanes.empty(), "a transfer needs at least one lane");

  const std::vector<Bytes> sizes = chunk_sizes(size, config_.chunk_size);
  chunks_.resize(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    chunks_[i].size = sizes[i];
    chunks_[i].hash = hash_combine(hash_u64(i),
                                   hash_u64(static_cast<std::uint64_t>(sizes[i].count())));
  }
  stats_.chunks_total = static_cast<int>(sizes.size());
  bind_obs();
  reset_lanes(std::move(lanes));
}

void GeoTransfer::bind_obs() {
  obs::Observability* o = engine_.obs();
  if (o == nullptr) return;
  auto& m = o->metrics();
  obs_started_ = m.counter("transfer.started");
  obs_completed_ = m.counter("transfer.completed");
  obs_failed_ = m.counter("transfer.failed");
  obs_bytes_ = m.counter("transfer.bytes.delivered");
  obs_chunks_ = m.counter("transfer.chunks.delivered");
  obs_retransmissions_ = m.counter("transfer.retransmissions");
  obs_duplicates_ = m.counter("transfer.duplicates_dropped");
  obs_hop_failures_ = m.counter("transfer.hop_failures");
  obs_throughput_ = m.histogram("transfer.throughput_mbps",
                                {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
}

GeoTransfer::~GeoTransfer() { *alive_ = false; }

void GeoTransfer::reset_lanes(std::vector<Lane> lanes) {
  SAGE_CHECK(!lanes.empty());
  const cloud::VmId src = lanes.front().path.front();
  const cloud::VmId dst = lanes.front().path.back();

  // Retire the current lane set. Chunks parked at relay queues restart
  // from the source; chunks already flying complete (or fail) against the
  // retired state and are routed onward by their own callbacks.
  const auto alive = alive_;
  for (auto& old : lanes_) {
    old->dead = true;
    old->retired = true;
    drain_waiting(*old);
    if (!*alive) return;
  }
  lanes_.clear();

  for (Lane& lane : lanes) {
    SAGE_CHECK_MSG(lane.path.size() >= 2, "lane path needs at least src and dst");
    SAGE_CHECK_MSG(lane.path.front() == src && lane.path.back() == dst,
                   "all lanes must share the transfer's endpoints");
    auto state = std::make_shared<LaneState>();
    state->hops.resize(lane.path.size() - 1);
    for (HopState& hop : state->hops) hop.free_slots = config_.streams_per_hop;
    state->lane = std::move(lane);
    lanes_.push_back(std::move(state));
  }
  if (running_) pump();
}

const std::vector<Bytes>& GeoTransfer::lane_bytes() const {
  lane_bytes_.clear();
  for (const auto& lane : lanes_) lane_bytes_.push_back(lane->bytes_delivered);
  return lane_bytes_;
}

void GeoTransfer::start() {
  SAGE_CHECK_MSG(!running_ && !finished_, "start() is one-shot");
  running_ = true;
  started_ = engine_.now();
  if (obs_started_ != nullptr) obs_started_->add();
  for (int c = 0; c < stats_.chunks_total; ++c) pool_.push_back(c);
  pump();
}

void GeoTransfer::cancel() {
  if (finished_) return;
  finish(false);
}

Bytes GeoTransfer::delivered() const { return delivered_bytes_; }

SimDuration GeoTransfer::chunk_timeout() const {
  const SimDuration expected =
      ByteRate::mb_per_sec(1.0).time_for(config_.chunk_size) * kTimeoutFactor;
  return std::max(expected, kTimeoutFloor);
}

void GeoTransfer::pump() {
  if (!running_ || finished_) return;
  const auto alive = alive_;
  // Relay hops drain their own queues first, then first hops drain the
  // shared pool round-robin across lanes.
  for (auto& lane : lanes_) {
    if (lane->dead) continue;
    for (std::size_t h = 1; h < lane->hops.size(); ++h) {
      pump_hop(lane, h);
      if (!*alive) return;
    }
  }
  bool progress = true;
  while (progress && !pool_.empty()) {
    progress = false;
    for (auto& lane : lanes_) {
      if (pool_.empty()) break;
      const int pipeline_depth =
          config_.streams_per_hop * static_cast<int>(lane->hops.size());
      if (lane->dead || lane->hops[0].free_slots <= 0 ||
          lane->in_lane >= pipeline_depth) {
        continue;
      }
      const int chunk = pool_.front();
      pool_.pop_front();
      ChunkState& cs = chunks_[static_cast<std::size_t>(chunk)];
      if (cs.delivered) continue;  // stale retransmit entry
      ++cs.in_flight;
      ++lane->in_lane;
      arm_timeout(chunk);
      send_hop(lane, chunk, 0);
      if (!*alive) return;
      progress = true;
    }
  }
}

void GeoTransfer::pump_hop(const std::shared_ptr<LaneState>& lane, std::size_t hop) {
  HopState& state = lane->hops[hop];
  const auto alive = alive_;
  while (state.free_slots > 0 && !state.waiting.empty()) {
    const int chunk = state.waiting.front();
    state.waiting.pop_front();
    send_hop(lane, chunk, hop);
    if (!*alive) return;
  }
}

void GeoTransfer::send_hop(const std::shared_ptr<LaneState>& lane, int chunk,
                           std::size_t hop) {
  const cloud::VmId sender = lane->lane.path[hop];
  const cloud::VmId receiver = lane->lane.path[hop + 1];
  auto alive = alive_;
  if (!provider_.is_active(sender) || !provider_.is_active(receiver)) {
    ++stats_.hop_failures;
    if (obs_hop_failures_ != nullptr) obs_hop_failures_->add();
    --chunks_[static_cast<std::size_t>(chunk)].in_flight;
    --lane->in_lane;
    kill_lane(*lane);
    if (!*alive) return;
    requeue(chunk, /*count_attempt=*/true);
    if (!*alive) return;
    pump();
    return;
  }

  --lane->hops[hop].free_slots;
  const Bytes size = chunks_[static_cast<std::size_t>(chunk)].size;
  const cloud::FlowId fid = provider_.transfer(
      sender, receiver, size, hop_flow_options(provider_, sender, config_),
      [this, alive, lane, chunk, hop](const cloud::FlowResult& r) {
        // Every call below that can reach finish() runs the done callback,
        // which may destroy this transfer (a backend reaping finished
        // transfers from a re-entrant send); stop as soon as it is gone.
        if (!*alive) return;
        std::erase(active_flows_, r.id);
        if (finished_) return;
        ++lane->hops[hop].free_slots;
        if (!r.ok()) {
          ++stats_.hop_failures;
          if (obs_hop_failures_ != nullptr) obs_hop_failures_->add();
          --chunks_[static_cast<std::size_t>(chunk)].in_flight;
          --lane->in_lane;
          if (!lane->retired) kill_lane(*lane);
          if (!*alive) return;
          requeue(chunk, /*count_attempt=*/true);
          if (!*alive) return;
          pump();
          return;
        }
        if (hop + 1 == lane->lane.path.size() - 1) {
          on_delivered(*lane, chunk);
        } else if (!lane->dead) {
          lane->hops[hop + 1].waiting.push_back(chunk);
          pump_hop(lane, hop + 1);
        } else {
          // Lane died (or was retired) while the chunk was mid-flight:
          // resend from the source through the live lane set. Not a
          // failure of the chunk itself, so it costs no attempt.
          --chunks_[static_cast<std::size_t>(chunk)].in_flight;
          --lane->in_lane;
          requeue(chunk, /*count_attempt=*/false);
        }
        if (!*alive) return;
        pump();
      });
  active_flows_.push_back(fid);
}

void GeoTransfer::arm_timeout(int chunk) {
  auto alive = alive_;
  // Exponential backoff across attempts: under heavy congestion every
  // chunk is slow, and retransmitting on a fixed deadline only adds load —
  // the classic self-sustaining timeout storm. Each failed attempt doubles
  // the patience.
  const int shift =
      std::min(chunks_[static_cast<std::size_t>(chunk)].attempts, 4);
  engine_.schedule_after(chunk_timeout() * static_cast<double>(1 << shift),
                         [this, alive, chunk] {
    if (!*alive || finished_) return;
    if (chunks_[static_cast<std::size_t>(chunk)].acked) return;
    ++stats_.retransmissions;
    if (obs_retransmissions_ != nullptr) obs_retransmissions_->add();
    requeue(chunk, /*count_attempt=*/true);
    if (!*alive) return;
    pump();
  });
}

void GeoTransfer::on_delivered(LaneState& lane, int chunk) {
  ChunkState& cs = chunks_[static_cast<std::size_t>(chunk)];
  --cs.in_flight;
  --lane.in_lane;
  if (cs.delivered) {
    // A retransmitted copy raced the original and lost: receiver dedup by
    // chunk hash drops it.
    ++stats_.duplicates_dropped;
    if (obs_duplicates_ != nullptr) obs_duplicates_->add();
    return;
  }
  cs.delivered = true;
  ++stats_.chunks_delivered;
  delivered_bytes_ += cs.size;
  lane.bytes_delivered += cs.size;
  if (obs_chunks_ != nullptr) {
    obs_chunks_->add();
    obs_bytes_->add(static_cast<std::uint64_t>(cs.size.count()));
  }

  // End-to-end acknowledgement: one-way control message back to the source.
  const cloud::VmId src = lane.lane.path.front();
  const cloud::VmId dst = lane.lane.path.back();
  const SimDuration ack_latency =
      provider_.rtt(provider_.vm(dst).region, provider_.vm(src).region) / 2.0;
  auto alive = alive_;
  engine_.schedule_after(ack_latency, [this, alive, chunk] {
    if (!*alive || finished_) return;
    ChunkState& state = chunks_[static_cast<std::size_t>(chunk)];
    if (state.acked) return;
    state.acked = true;
    ++completed_;
    maybe_finish();
  });
}

void GeoTransfer::drain_waiting(LaneState& lane) {
  const auto alive = alive_;
  for (std::size_t h = 1; h < lane.hops.size(); ++h) {
    for (int chunk : lane.hops[h].waiting) {
      --chunks_[static_cast<std::size_t>(chunk)].in_flight;
      --lane.in_lane;
      requeue(chunk, /*count_attempt=*/false);
      if (!*alive) return;
    }
    lane.hops[h].waiting.clear();
  }
}

void GeoTransfer::kill_lane(LaneState& lane) {
  if (lane.dead) return;
  lane.dead = true;
  const auto alive = alive_;
  drain_waiting(lane);
  if (!*alive) return;
  // If every current lane is dead and work remains, the transfer cannot
  // finish. Retired lanes do not count: a reset always installs live ones.
  const bool any_alive =
      std::any_of(lanes_.begin(), lanes_.end(),
                  [](const auto& l) { return !l->dead; });
  if (!any_alive && completed_ < stats_.chunks_total) finish(false);
}

void GeoTransfer::requeue(int chunk, bool count_attempt) {
  ChunkState& cs = chunks_[static_cast<std::size_t>(chunk)];
  if (cs.delivered) return;
  // `attempts` counts failure-driven resends (hop failures, timeouts);
  // lane retirement during adaptation requeues for free.
  if (count_attempt) ++cs.attempts;
  if (cs.attempts >= config_.max_attempts && cs.in_flight == 0) {
    finish(false);
    return;
  }
  if (cs.attempts >= config_.max_attempts) return;  // copies still in flight
  pool_.push_back(chunk);
}

void GeoTransfer::maybe_finish() {
  if (completed_ >= stats_.chunks_total) finish(true);
}

void GeoTransfer::finish(bool ok) {
  if (finished_) return;
  finished_ = true;
  running_ = false;
  for (const cloud::FlowId fid : std::vector<cloud::FlowId>(active_flows_)) {
    provider_.fabric().cancel_flow(fid);
  }
  active_flows_.clear();
  TransferResult result;
  result.ok = ok;
  result.size = ok ? size_ : delivered_bytes_;
  result.started = started_;
  result.finished = engine_.now();
  result.stats = stats_;
  if (obs_completed_ != nullptr) {
    (ok ? obs_completed_ : obs_failed_)->add();
    if (ok && result.elapsed() > SimDuration::zero()) {
      obs_throughput_->observe(result.throughput().bytes_per_second() / 1e6);
    }
  }
  on_done_(result);
}

}  // namespace sage::net
