#include "baselines/backends.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace sage::baselines {
namespace {

void reap(std::vector<std::unique_ptr<net::GeoTransfer>>& live) {
  std::erase_if(live, [](const auto& t) { return t->finished(); });
}

}  // namespace

// ---------------------------------------------------------------------------
// Direct
// ---------------------------------------------------------------------------

DirectBackend::DirectBackend(GatewayPool& pool, net::TransferConfig config)
    : pool_(pool), config_(config) {}

void DirectBackend::send(cloud::Region src, cloud::Region dst, Bytes size, DoneFn done) {
  SAGE_CHECK(done != nullptr);
  reap(live_);
  const cloud::VmId a = pool_.gateway(src);
  const cloud::VmId b = pool_.gateway(dst);
  const SimTime began = pool_.provider().engine().now();
  auto transfer = std::make_unique<net::GeoTransfer>(
      pool_.provider(), size, net::direct_lane(a, b), config_,
      [done = std::move(done), began, &engine = pool_.provider().engine()](
          const net::TransferResult& r) {
        done(stream::SendOutcome{r.ok, engine.now() - began});
      });
  transfer->start();
  live_.push_back(std::move(transfer));
}

// ---------------------------------------------------------------------------
// SimpleParallel: static partitioning, no monitoring.
// ---------------------------------------------------------------------------

SimpleParallelBackend::SimpleParallelBackend(GatewayPool& pool, int nodes,
                                             net::TransferConfig config)
    : pool_(pool), nodes_(nodes), config_(config) {
  SAGE_CHECK(nodes_ >= 1);
}

void SimpleParallelBackend::send(cloud::Region src, cloud::Region dst, Bytes size,
                                 DoneFn done) {
  SAGE_CHECK(done != nullptr);
  reap(live_);
  const cloud::VmId a = pool_.gateway(src);
  const cloud::VmId b = pool_.gateway(dst);
  const auto helpers = pool_.helpers(src, nodes_ - 1);
  const SimTime began = pool_.provider().engine().now();

  // Static partition decided up front: size/N to each node regardless of
  // how the nodes or links actually perform — this is the point of this
  // baseline. The transfer ends when the slowest share lands.
  struct Shared {
    int pending = 0;
    bool ok = true;
    DoneFn done;
    SimTime began;
    sim::SimEngine* engine = nullptr;
  };
  auto shared = std::make_shared<Shared>();
  shared->done = std::move(done);
  shared->began = began;
  shared->engine = &pool_.provider().engine();

  const Bytes share = size / nodes_;
  Bytes assigned = Bytes::zero();
  for (int i = 0; i < nodes_; ++i) {
    const Bytes part = (i + 1 == nodes_) ? size - assigned : share;
    assigned += part;
    if (part.is_zero()) continue;
    std::vector<net::Lane> lane;
    if (i == 0) {
      lane = net::direct_lane(a, b);
    } else {
      lane = {net::Lane{{a, helpers[static_cast<std::size_t>(i - 1)], b}}};
    }
    ++shared->pending;
    auto transfer = std::make_unique<net::GeoTransfer>(
        pool_.provider(), part, std::move(lane), config_,
        [shared](const net::TransferResult& r) {
          shared->ok = shared->ok && r.ok;
          if (--shared->pending == 0) {
            shared->done(stream::SendOutcome{shared->ok,
                                             shared->engine->now() - shared->began});
          }
        });
    transfer->start();
    live_.push_back(std::move(transfer));
  }
}

// ---------------------------------------------------------------------------
// BlobRelay: write to the destination region's object store, then read.
// ---------------------------------------------------------------------------

BlobRelayBackend::BlobRelayBackend(GatewayPool& pool, int gateways_per_region)
    : pool_(pool), gateways_per_region_(gateways_per_region) {
  SAGE_CHECK(gateways_per_region_ >= 1);
}

void BlobRelayBackend::send(cloud::Region src, cloud::Region dst, Bytes size, DoneFn done) {
  SAGE_CHECK(done != nullptr);
  auto& provider = pool_.provider();
  auto& blob = provider.blob(dst);
  const auto pick = static_cast<std::size_t>(next_object_ %
                                             static_cast<std::uint64_t>(gateways_per_region_));
  const cloud::VmId src_vm = pool_.gateways(src, gateways_per_region_)[pick];
  const cloud::VmId dst_vm = pool_.gateways(dst, gateways_per_region_)[pick];
  const cloud::NodeId src_node = provider.vm(src_vm).node;
  const cloud::NodeId dst_node = provider.vm(dst_vm).node;
  const std::string name = "relay-" + std::to_string(next_object_++);
  const SimTime began = provider.engine().now();

  blob.put(src_node, name, size,
           [this, &blob, dst_node, name, began, done = std::move(done)](
               const cloud::BlobOpResult& put_result) mutable {
             auto& engine = pool_.provider().engine();
             if (!put_result.ok) {
               done(stream::SendOutcome{false, engine.now() - began});
               return;
             }
             blob.get(dst_node, name,
                      [&engine, &blob, name, began,
                       done = std::move(done)](const cloud::BlobOpResult& get_result) {
                        blob.remove(name);
                        done(stream::SendOutcome{get_result.ok, engine.now() - began});
                      });
           });
}

}  // namespace sage::baselines
