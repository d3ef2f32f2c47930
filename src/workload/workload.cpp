#include "workload/workload.h"

namespace cpm::workload {

WorkloadInstance::WorkloadInstance(const BenchmarkProfile& profile,
                                   std::uint64_t seed,
                                   units::Milliseconds phase_offset)
    : profile_(&profile), rng_(seed) {
  if (!profile.phases.empty()) enter_phase();
  advance_clock(units::max(units::Milliseconds{0.0}, phase_offset));
}

void WorkloadInstance::roll_phases() noexcept {
  const auto& phases = profile_->phases;
  if (phases.empty()) return;
  while (time_in_phase_ms_ >= phase_len_ms_) {
    time_in_phase_ms_ -= phase_len_ms_;
    if (++phase_index_ == phases.size()) phase_index_ = 0;
    enter_phase();
  }
}

void WorkloadInstance::enter_phase() noexcept {
  const auto& phases = profile_->phases;
  phase_len_ms_ = phases[phase_index_].duration_ms * profile_->phase_time_scale;
  if (phases.size() > 1) ramp_ms_ = kRampFraction * phase_len_ms_;
}

void WorkloadInstance::refresh_demand() noexcept {
  if (in_ramp()) {
    cached_demand_ = ramp_demand();
    cached_phase_index_ = kNoCachedPhase;
  } else {
    cached_demand_ = phase_demand();
    cached_phase_index_ = phase_index_;
  }
}

Demand WorkloadInstance::demand_for(double cpi_mult, double mem_mult,
                                    double activity_mult) const noexcept {
  Demand d;
  d.cpi = profile_->cpi_base * cpi_mult;
  d.mem_stall_ns = profile_->mem_stall_ns * mem_mult;
  d.activity = profile_->activity_active * activity_mult;
  d.bandwidth_demand = profile_->bandwidth_demand * mem_mult;
  return d;
}

Demand WorkloadInstance::phase_demand() const noexcept {
  const auto& phases = profile_->phases;
  if (phases.empty()) return demand_for(1.0, 1.0, 1.0);
  const Phase& cur = phases[phase_index_];
  return demand_for(cur.cpi_mult, cur.mem_mult, cur.activity_mult);
}

Demand WorkloadInstance::ramp_demand() const noexcept {
  // Ramp in from the previous phase over the first kRampFraction of this
  // phase's duration.
  const auto& phases = profile_->phases;
  const Phase& cur = phases[phase_index_];
  const Phase& prev =
      phases[(phase_index_ == 0 ? phases.size() : phase_index_) - 1];
  const double w = time_in_phase_ms_ / ramp_ms_;  // 0 -> prev, 1 -> cur
  return demand_for(prev.cpi_mult + w * (cur.cpi_mult - prev.cpi_mult),
                    prev.mem_mult + w * (cur.mem_mult - prev.mem_mult),
                    prev.activity_mult +
                        w * (cur.activity_mult - prev.activity_mult));
}

Demand WorkloadInstance::peek() const noexcept {
  return in_ramp() ? ramp_demand() : phase_demand();
}

}  // namespace cpm::workload
