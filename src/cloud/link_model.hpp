// Time-varying link capacity model.
//
// Multi-tenant cloud links exhibit (a) a diurnal load cycle, (b) short-term
// correlated noise from co-tenants, and (c) occasional deep performance
// incidents with no warning — the "drops or bursts can appear at any time"
// behaviour reported for Azure inter-DC links. The model composes:
//
//   C(t) = base · diurnal(t) · ar1_noise(t) · incident(t)
//
//   * diurnal(t): 1 − A·sin²(π·(t−φ)/24h), a smooth daily dip of depth A;
//   * ar1_noise(t): exp(x_t) with x_{t+1} = ρ·x_t + ε, ε ~ N(0, σ²),
//     piecewise-constant over `noise_step` segments (lazily advanced, so a
//     simulated week costs only the segments actually observed);
//   * incident(t): Poisson arrivals; each incident multiplies capacity by a
//     uniform depth factor for an exponentially distributed duration.
//
// The model is deterministic given its Rng seed and is evaluated lazily:
// capacity_at(t) may only be called with non-decreasing t. A repeat query at
// the same instant draws nothing and returns the same value.
#pragma once

#include "common/rng.hpp"
#include "common/units.hpp"

namespace sage::cloud {

struct VariabilityParams {
  /// Depth of the daily dip in (0, 1); 0 disables the diurnal term.
  double diurnal_amplitude = 0.15;
  /// Phase offset of the dip within the day.
  SimDuration diurnal_phase = SimDuration::hours(14);
  /// AR(1) autocorrelation per step, in [0, 1).
  double noise_rho = 0.9;
  /// Innovation stddev of the AR(1) log-noise.
  double noise_sigma = 0.08;
  /// Length of one piecewise-constant noise segment.
  SimDuration noise_step = SimDuration::seconds(30);
  /// Mean incidents per simulated day (Poisson rate); 0 disables incidents.
  double incidents_per_day = 2.0;
  /// Mean incident duration.
  SimDuration incident_mean_duration = SimDuration::minutes(4);
  /// Incident capacity multiplier is drawn uniformly from this range.
  double incident_depth_lo = 0.25;
  double incident_depth_hi = 0.7;

  [[nodiscard]] static VariabilityParams stable() {
    VariabilityParams p;
    p.diurnal_amplitude = 0.0;
    p.noise_sigma = 0.0;
    p.incidents_per_day = 0.0;
    return p;
  }
};

class LinkCapacityModel {
 public:
  LinkCapacityModel(ByteRate base, VariabilityParams params, Rng rng);

  /// Capacity at time t. Monotone access contract: t must not decrease
  /// between calls (the simulator clock never runs backwards).
  [[nodiscard]] ByteRate capacity_at(SimTime t);

  [[nodiscard]] ByteRate base() const { return base_; }
  [[nodiscard]] const VariabilityParams& params() const { return params_; }

  /// Multiplicative factor (noise · incident · diurnal) at the last query.
  [[nodiscard]] double last_factor() const { return last_factor_; }

 private:
  void advance_noise(SimTime t);
  void advance_incidents(SimTime t);
  [[nodiscard]] double diurnal(SimTime t) const;

  ByteRate base_;
  VariabilityParams params_;
  Rng rng_;

  // AR(1) log-noise state.
  double noise_x_ = 0.0;
  double noise_factor_ = 1.0;  // exp(noise_x_), refreshed per noise segment
  SimTime noise_until_ = SimTime::epoch();

  // Incident process state.
  SimTime next_incident_ = SimTime::epoch();
  SimTime incident_end_ = SimTime::epoch();
  double incident_factor_ = 1.0;
  bool incident_scheduled_ = false;

  double last_factor_ = 1.0;
  SimTime last_query_ = SimTime::epoch();
};

}  // namespace sage::cloud
