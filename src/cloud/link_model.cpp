#include "cloud/link_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace sage::cloud {

LinkCapacityModel::LinkCapacityModel(ByteRate base, VariabilityParams params, Rng rng)
    : base_(base), params_(params), rng_(rng) {
  SAGE_CHECK(base.bytes_per_second() > 0.0);
  SAGE_CHECK(params.noise_rho >= 0.0 && params.noise_rho < 1.0);
  SAGE_CHECK(params.diurnal_amplitude >= 0.0 && params.diurnal_amplitude < 1.0);
}

double LinkCapacityModel::diurnal(SimTime t) const {
  if (params_.diurnal_amplitude <= 0.0) return 1.0;
  constexpr double kDaySeconds = 24.0 * 3600.0;
  const double phase =
      (t - SimTime::epoch() - params_.diurnal_phase).to_seconds() / kDaySeconds;
  const double s = std::sin(phase * 3.14159265358979323846);
  return 1.0 - params_.diurnal_amplitude * s * s;
}

void LinkCapacityModel::advance_noise(SimTime t) {
  if (params_.noise_sigma <= 0.0 || noise_until_ > t) return;
  while (noise_until_ <= t) {
    noise_x_ = params_.noise_rho * noise_x_ + rng_.normal(0.0, params_.noise_sigma);
    noise_until_ = noise_until_ + params_.noise_step;
  }
  noise_factor_ = std::exp(noise_x_);
}

void LinkCapacityModel::advance_incidents(SimTime t) {
  if (params_.incidents_per_day <= 0.0) return;
  const double rate_per_sec = params_.incidents_per_day / (24.0 * 3600.0);
  if (!incident_scheduled_) {
    next_incident_ = last_query_ + SimDuration::seconds(rng_.exponential(rate_per_sec));
    incident_scheduled_ = true;
  }
  // Replay any incidents that started (and possibly ended) before t.
  while (next_incident_ <= t) {
    const SimTime start = next_incident_;
    const auto duration =
        SimDuration::seconds(rng_.exponential(1.0 / params_.incident_mean_duration.to_seconds()));
    const double depth = rng_.uniform(params_.incident_depth_lo, params_.incident_depth_hi);
    if (start + duration > t) {
      incident_end_ = start + duration;
      incident_factor_ = depth;
    }
    next_incident_ = start + SimDuration::seconds(rng_.exponential(rate_per_sec));
  }
  if (t >= incident_end_) incident_factor_ = 1.0;
}

ByteRate LinkCapacityModel::capacity_at(SimTime t) {
  SAGE_CHECK_MSG(t >= last_query_, "LinkCapacityModel queried with decreasing time");
  advance_noise(t);
  advance_incidents(t);
  last_query_ = t;
  // Clamp the composite factor: capacity never exceeds 130% of base (links
  // are provisioned, not magic) and never drops below 5% (routing keeps a
  // trickle alive even during incidents).
  const double factor =
      std::clamp(diurnal(t) * noise_factor_ * incident_factor_, 0.05, 1.3);
  last_factor_ = factor;
  return base_ * factor;
}

}  // namespace sage::cloud
