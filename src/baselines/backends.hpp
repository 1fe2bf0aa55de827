// Baseline wide-area transfer systems for the evaluation's comparisons.
//
//  * DirectBackend        — one TCP session endpoint-to-endpoint; the
//                           simplest thing that works (scp/ftp-grade).
//  * SimpleParallelBackend— N sender nodes with *static* data partitioning
//                           and no monitoring: each node gets size/N up
//                           front, so one slow node drags the whole
//                           transfer (the environment-oblivious strawman
//                           the environment-aware comparison needs).
//  * BlobRelayBackend     — the only stock cloud offering: the source
//                           writes the payload to the destination region's
//                           object store, then the destination reads it
//                           back; two HTTP-fronted staging phases in
//                           series.
//
// All backends implement stream::TransferBackend, so every comparison can
// run both as a bulk-transfer bench and as the WAN layer under a streaming
// job.
#pragma once

#include <memory>
#include <string>

#include "baselines/gateway.hpp"
#include "net/transfer.hpp"
#include "stream/backend.hpp"

namespace sage::baselines {

class DirectBackend final : public stream::TransferBackend {
 public:
  explicit DirectBackend(GatewayPool& pool, net::TransferConfig config = {});

  void send(cloud::Region src, cloud::Region dst, Bytes size, DoneFn done) override;
  [[nodiscard]] std::string_view name() const override { return "Direct"; }

 private:
  GatewayPool& pool_;
  net::TransferConfig config_;
  std::vector<std::unique_ptr<net::GeoTransfer>> live_;
};

class SimpleParallelBackend final : public stream::TransferBackend {
 public:
  SimpleParallelBackend(GatewayPool& pool, int nodes, net::TransferConfig config = {});

  void send(cloud::Region src, cloud::Region dst, Bytes size, DoneFn done) override;
  [[nodiscard]] std::string_view name() const override { return "SimpleParallel"; }

 private:
  GatewayPool& pool_;
  int nodes_;
  net::TransferConfig config_;
  std::vector<std::unique_ptr<net::GeoTransfer>> live_;
};

class BlobRelayBackend final : public stream::TransferBackend {
 public:
  /// `gateways_per_region` spreads concurrent relays across several staging
  /// VMs per region (multi-node deployments write from the node that owns
  /// the data).
  explicit BlobRelayBackend(GatewayPool& pool, int gateways_per_region = 1);

  void send(cloud::Region src, cloud::Region dst, Bytes size, DoneFn done) override;
  [[nodiscard]] std::string_view name() const override { return "BlobRelay"; }

 private:
  GatewayPool& pool_;
  int gateways_per_region_;
  std::uint64_t next_object_ = 0;
};

}  // namespace sage::baselines
