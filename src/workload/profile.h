// Synthetic benchmark profiles standing in for the paper's PARSEC workloads
// (Table II) and the SPEC-like applications of the thermal study (Fig. 18a).
//
// A profile is an analytic description of how one application thread behaves
// on a core: base CPI when compute-bound, per-instruction memory stall time,
// switching activity (drives dynamic power), and a cyclic phase program that
// modulates these over time so that island power demand varies the way the
// paper's Figs. 7-8 show. The two-tier controllers only ever observe
// (utilization, BIPS, power) per interval, so profiles calibrated to the
// paper's Fig. 6 power-vs-utilization slopes exercise the same control paths
// as the real benchmarks.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace cpm::workload {

enum class WorkloadClass : std::uint8_t { kCpuBound, kMemoryBound };

/// One phase of the cyclic phase program; multipliers apply to the profile's
/// base CPI / memory-stall values for `duration_ms`.
struct Phase {
  double cpi_mult = 1.0;
  double mem_mult = 1.0;
  double duration_ms = 1.0;
  /// Switching-activity multiplier: code regions differ strongly in issue
  /// density/datapath use, which is the dominant source of the time-varying
  /// power demand the GPM redistributes (paper Figs. 7-8 show island demand
  /// moving between ~12 % and ~26 % of chip power).
  double activity_mult = 1.0;
};

struct BenchmarkProfile {
  std::string_view name;        // full PARSEC name, e.g. "blackscholes"
  std::string_view short_name;  // paper abbreviation, e.g. "bschls"
  WorkloadClass cls = WorkloadClass::kCpuBound;

  /// Core cycles per instruction with a perfect memory system.
  double cpi_base = 1.0;
  /// Memory stall per instruction in nanoseconds (frequency independent).
  double mem_stall_ns = 0.1;
  /// Relative memory-bandwidth demand (drives shared-memory contention).
  double bandwidth_demand = 0.1;
  /// Switching-activity factor while the pipeline does useful work.
  double activity_active = 1.0;
  /// Residual activity while stalled (clock-gated idle, Wattch cc3-style).
  double activity_idle = 0.10;
  /// Effective switched capacitance scale of this code's datapath use.
  double ceff_scale = 1.0;
  /// Relative multiplicative noise (sigma) applied per simulation tick.
  double noise_sigma = 0.03;

  std::span<const Phase> phases;

  /// Stretch factor on the phase program's durations. Calibrated (3x) so
  /// island power demand is roughly stationary within one PIC interval and
  /// one GPM window but drifts visibly across GPM windows, matching the
  /// dynamics of the paper's Figs. 7-9.
  double phase_time_scale = 3.0;

  bool cpu_bound() const noexcept { return cls == WorkloadClass::kCpuBound; }
};

/// The eight PARSEC benchmarks of Table II, in the paper's order:
/// blackscholes, bodytrack, facesim, freqmine, x264, vips, streamcluster,
/// canneal.
std::span<const BenchmarkProfile> parsec_profiles();

/// The four SPEC-like CPU-bound applications of the thermal study (Fig. 18a):
/// mesa, bzip, gcc, sixtrack.
std::span<const BenchmarkProfile> spec_profiles();

/// The remaining five PARSEC benchmarks the paper did not select
/// (swaptions, raytrace, fluidanimate, ferret, dedup) -- provided for
/// experiments beyond the paper's workload set.
std::span<const BenchmarkProfile> extra_parsec_profiles();

/// Lookup by short or full name across all three suites (paper PARSEC,
/// SPEC-like, extended PARSEC); throws
/// std::invalid_argument if unknown.
const BenchmarkProfile& find_profile(std::string_view name);

/// Per-instruction kind fractions of a code; they sum to 1. They weight the
/// per-structure activity of power::StructuralPowerModel.
struct InstructionMix {
  double int_alu = 0.4;
  double fp_alu = 0.1;
  double load = 0.3;
  double store = 0.1;
  double branch = 0.1;
};

/// Instruction mix of every profile in the three suites, by full name;
/// throws std::invalid_argument if unknown.
const InstructionMix& instruction_mix(std::string_view profile_name);

}  // namespace cpm::workload
