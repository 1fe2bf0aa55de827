// Per-World observability bundle: one metrics registry plus (optionally) one
// trace sink, owned by the SimEngine and reached by components through
// `engine.obs()`.
//
// The zero-overhead contract: when observability is off, `engine.obs()` is
// nullptr and every component caches null cell pointers at construction, so
// the hot paths pay exactly one always-false branch per instrumentation
// point. Nothing here touches RNG state or schedules events, so enabling
// observability cannot perturb a simulation — obs-on and obs-off runs of the
// same seed produce bit-identical results (the differential test pins this).
#pragma once

#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sage::obs {

struct ObsConfig {
  /// Metrics are always on when obs is on. The trace ring keeps TraceSink's
  /// default 8192 slots; the oldest spans drop on wrap.
  bool tracing = true;
};

class Observability {
 public:
  explicit Observability(const ObsConfig& config) {
    if (config.tracing) tracer_ = std::make_unique<TraceSink>();
  }

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  /// Null when tracing is disabled — callers guard each use.
  [[nodiscard]] TraceSink* tracer() { return tracer_.get(); }
  [[nodiscard]] const TraceSink* tracer() const { return tracer_.get(); }

 private:
  MetricsRegistry metrics_;
  std::unique_ptr<TraceSink> tracer_;
};

}  // namespace sage::obs
