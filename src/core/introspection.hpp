// Introspection-as-a-Service.
//
// The engine already knows everything a cloud user normally cannot see:
// the measured behaviour of every inter-site link, the compute health of
// its agents, the exact itemised bill, and how its own predictions fared
// against reality. This module renders that knowledge as a report — the
// "enhanced visibility into the actually-supported service levels" the
// system's conclusions propose to offer cloud users, and a metric a
// provider could publish for resources of a given configuration.
#pragma once

#include <string>

#include "core/sage.hpp"

namespace sage::core {

struct IntrospectionReport {
  /// Measured service levels per monitored link: mean/σ MB/s, sample count,
  /// plus recent-history percentiles (p5/p50/p95) when history is enabled.
  std::string link_service_levels;
  /// Agent-VM compute factors per region.
  std::string compute_health;
  /// Itemised charges accrued so far.
  std::string bill;
  /// Decision audit: per-transfer predicted vs achieved time, lanes used,
  /// replans, delivery stats.
  std::string decision_audit;
  /// Event-loop accounting (virtual clock, scheduled/fired/cancelled/live
  /// event counts) of the engine's own SimEngine: one lane's counters when
  /// the engine is a lane of a sharded deployment.
  std::string runtime;

  /// All sections concatenated, ready to print.
  [[nodiscard]] std::string render() const;
};

/// Build a report from the engine's current state. Read-only.
[[nodiscard]] IntrospectionReport introspect(SageEngine& engine);

}  // namespace sage::core
