#include "core/sharded_sage.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace sage::core {

ShardedSage::ShardedSage(std::shared_ptr<const cloud::Topology> topology,
                         std::uint64_t seed, SageConfig config, Options opts)
    : topology_(std::move(topology)) {
  SAGE_CHECK(topology_ != nullptr);
  plan_ = cloud::plan_shards(*topology_, opts.shards);

  // The uniform sample report delay: every lane — the producer included —
  // ingests a sample exactly D after production. D must cover the longest
  // one-way hop so a cross-shard relay is always postable within the
  // conservative horizon (D >= min cross-shard latency = lookahead).
  report_delay_ = SimDuration::zero();
  for (const cloud::Topology::Edge& e : topology_->edges()) {
    if (e.src == e.dst) continue;
    SAGE_CHECK_MSG(e.spec.variability.noise_sigma <= 0.0 &&
                       e.spec.variability.incidents_per_day <= 0.0,
                   "ShardedSage requires a stable (noise-free) topology: "
                   "stochastic capacity draws are per-fabric and would break "
                   "shard-count invariance");
    report_delay_ = std::max(report_delay_, e.spec.latency);
  }
  SAGE_CHECK_MSG(report_delay_ > SimDuration::zero(),
                 "topology declares no inter-region edges");

  sim::ShardedSimEngine::Options eng;
  eng.shards = plan_.shards;
  eng.lookahead = plan_.lookahead;
  eng.parallel = opts.parallel;
  eng.max_workers = opts.max_workers;
  engine_ = std::make_unique<sim::ShardedSimEngine>(eng);

  const std::size_t lanes = engine_->lane_count();
  providers_.reserve(lanes);
  lanes_.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    // Identical seed on every lane: the replicated deployment (agent CPU
    // models, blob services) is then bit-identical across lanes. Per-lane
    // divergence only begins with ephemeral send endpoints, whose forked
    // RNG streams are never read back.
    providers_.push_back(
        std::make_unique<cloud::CloudProvider>(engine_->shard(l), topology_, seed));
    // Sample relay: fan each produced sample out to every remote lane at
    // the same +D the producer applies locally. The mailbox merge orders
    // same-time deliveries by (time, src shard, seq) — deterministic, and
    // commutative for estimator state since distinct pairs own distinct
    // estimators. The relay reads lanes_ only when a sample fires, after
    // every lane exists.
    SageConfig lane_cfg = config;
    lane_cfg.monitoring.lane = monitor::ShardLane{
        [this, l](cloud::Region r) { return lane_of(r) == l; }, report_delay_,
        [this, l](cloud::Region src, cloud::Region dst, double mbps) {
          for (std::size_t m = 0; m < lanes_.size(); ++m) {
            if (m == l) continue;
            engine_->post(l, m, report_delay_, [this, m, src, dst, mbps] {
              lanes_[m]->monitoring().ingest_sample(src, dst, mbps);
            });
          }
        }};
    lanes_.push_back(std::make_unique<SageEngine>(*providers_.back(), lane_cfg));
  }
}

ShardedSage::~ShardedSage() = default;

void ShardedSage::deploy() {
  for (auto& lane : lanes_) lane->deploy();
}

void ShardedSage::send(cloud::Region src, cloud::Region dst, Bytes size,
                       const model::Tradeoff& tradeoff,
                       stream::TransferBackend::DoneFn done) {
  lanes_[lane_of(src)]->send_with(tradeoff, src, dst, size, std::move(done));
}

void ShardedSage::run_for(SimDuration d) {
  engine_->run_until(engine_->now() + d);
}

bool ShardedSage::epochs_consistent() const {
  const std::uint64_t first = lanes_.front()->monitoring().sample_epoch();
  return std::all_of(lanes_.begin(), lanes_.end(), [first](const auto& lane) {
    return lane->monitoring().sample_epoch() == first;
  });
}

}  // namespace sage::core
