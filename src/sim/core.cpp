#include "sim/core.h"

#include <algorithm>

namespace cpm::sim {

CoreModel::CoreModel(const workload::BenchmarkProfile& profile,
                     std::uint64_t seed, double contention_gamma,
                     units::Milliseconds phase_offset)
    : workload_(profile, seed, phase_offset),
      contention_gamma_(contention_gamma) {}

CoreTick CoreModel::step(double dt_seconds, const DvfsPoint& op,
                         double congestion, double stall_fraction) {
  const workload::Demand demand = workload_.step(dt_seconds);

  // Reciprocal-frequency and compute*(1/t) forms, NOT cpi/f and compute/t:
  // sim::Chip's tick hoists 1/f per island and reuses 1/t, and the
  // reference chip that steps this model must match it bit for bit.
  const double inv_freq = 1.0 / op.freq_ghz;
  const double instr_scale = 1e9 * dt_seconds;
  const double compute_ns = demand.cpi * inv_freq;
  const double mem_ns =
      demand.mem_stall_ns * (1.0 + contention_gamma_ * std::max(0.0, congestion));
  const double t_instr_ns = compute_ns + mem_ns;

  CoreTick tick;
  tick.stall_fraction = std::clamp(stall_fraction, 0.0, 1.0);
  const double run_fraction = 1.0 - tick.stall_fraction;
  // 1 ns/instruction == 1 BIPS, so BIPS while running is 1/t_instr_ns.
  const double bips_running = 1.0 / t_instr_ns;
  tick.instructions = bips_running * instr_scale * run_fraction;
  tick.bips = bips_running * run_fraction;
  tick.utilization = compute_ns * bips_running * run_fraction;
  tick.activity = demand.activity;
  tick.activity_idle = workload_.profile().activity_idle;
  tick.ceff_scale = workload_.profile().ceff_scale;
  tick.bandwidth_demand = bips_running * demand.bandwidth_demand * run_fraction;
  return tick;
}

}  // namespace cpm::sim
