// Per-World observability: one metrics registry, owned by the SimEngine and
// reached by components through `engine.obs()`.
//
// The zero-overhead contract: when observability is off, `engine.obs()` is
// nullptr and every component caches null cell pointers at construction, so
// the hot paths pay exactly one always-false branch per instrumentation
// point. Nothing here touches RNG state or schedules events, so enabling
// observability cannot perturb a simulation — obs-on and obs-off runs of the
// same seed produce bit-identical results (the differential test pins this).
#pragma once

#include "obs/metrics.hpp"

namespace sage::obs {

struct ObsConfig {
  /// Set by perfbench; nothing reads it. Metrics are always on when obs is
  /// on.
  bool tracing = true;
};

class Observability {
 public:
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

 private:
  MetricsRegistry metrics_;
};

}  // namespace sage::obs
