// Analytic core micro-model. Per tick, an instruction costs
//   t_instr = CPI_core/f  +  mem_stall * (1 + gamma * congestion)
// seconds(ns); utilization is the compute share of that cost. This replaces
// the paper's Simics/GEMS LOPA cores: the controllers only consume
// (utilization, BIPS, power) aggregates, which this model reproduces with the
// correct frequency scaling for CPU- and memory-bound codes.
//
// CoreModel is the per-object form of the model: one core, stepping its own
// workload::WorkloadInstance. sim::Chip builds none; it runs the same
// arithmetic as flat sweeps over all its cores (sim/chip.h). The test
// tree's reference chip (tests/support/reference_chip.h) steps one
// CoreModel per core and holds sim::Chip bit-identical to it.
#pragma once

#include <cstdint>

#include "sim/dvfs.h"
#include "workload/workload.h"

namespace cpm::sim {

/// Observable outcome of one core over one simulation tick.
struct CoreTick {
  double instructions = 0.0;      // instructions retired this tick
  double bips = 0.0;              // billions of instructions per second
  double utilization = 0.0;       // busy fraction in [0,1]
  double activity = 0.0;          // switching activity while busy
  double activity_idle = 0.0;     // residual activity while stalled (gated)
  double ceff_scale = 1.0;        // workload capacitance scale
  double bandwidth_demand = 0.0;  // contention units fed to MemorySystem
  double stall_fraction = 0.0;    // DVFS-transition stall share of the tick
};

class CoreModel {
 public:
  CoreModel(const workload::BenchmarkProfile& profile, std::uint64_t seed,
            double contention_gamma,
            units::Milliseconds phase_offset = units::Milliseconds{0.0});

  /// Advances one tick of dt seconds at operating point `op`, under shared
  /// memory congestion `congestion` (previous-tick value) and an island-wide
  /// DVFS stall taking `stall_fraction` of the tick.
  CoreTick step(double dt_seconds, const DvfsPoint& op, double congestion,
                double stall_fraction);

  const workload::BenchmarkProfile& profile() const noexcept {
    return workload_.profile();
  }
  double total_instructions() const noexcept { return total_instructions_; }

 private:
  workload::WorkloadInstance workload_;
  double contention_gamma_;
  double total_instructions_ = 0.0;
};

}  // namespace cpm::sim
