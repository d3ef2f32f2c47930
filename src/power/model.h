// Combined chip power model (dynamic + leakage) with per-island process
// variation, plus the max-chip-power bound used to express budgets as a
// percentage (the paper's "80 % of maximum chip power").
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "power/dynamic.h"
#include "power/leakage.h"
#include "sim/chip.h"
#include "sim/config.h"
#include "util/isa.h"

namespace cpm::power {

namespace kernels {

/// The power model's scalar constants, as chip_power_batch passes them.
struct PowerSweepArgs {
  double ceff_base;
  double k_design;
  double beta;
  double ref_c;
};

/// chip_power_batch's sweep over `n` cores at `isa` (every ISA gives the
/// same bits): each core's dynamic + leakage power into out_total_w, and its
/// leakage into out_leak_w unless that is null. The outputs must not
/// overlap the inputs or each other.
void power_sweep(util::Isa isa, std::size_t n, const PowerSweepArgs& args,
                 const double* utilization, const double* activity_busy,
                 const double* activity_idle, const double* ceff_scale,
                 const double* voltage, const double* freq_ghz,
                 const double* leak_mult, const double* temps_c,
                 double* out_total_w, double* out_leak_w) noexcept;

}  // namespace kernels

struct PowerBreakdown {
  double dynamic_w = 0.0;
  double leakage_w = 0.0;
  double total() const noexcept { return dynamic_w + leakage_w; }
};

class PowerModel {
 public:
  /// Builds from the CMP config; `island_leak_mults` (one per island) carries
  /// intra-die variation (empty = all 1.0).
  PowerModel(const sim::CmpConfig& config,
             std::vector<double> island_leak_mults = {});

  /// Power of one core of island `island_idx` at temperature `temp_c`.
  PowerBreakdown core_power(const sim::CoreTick& tick, const sim::DvfsPoint& op,
                            std::size_t island_idx, double temp_c) const;

  /// Whole-chip flat power sweep, the plant tick's only power evaluation
  /// (core::ChipPlant::step): ONE pass over all cores of the chip, with
  /// voltage / frequency / leak multiplier already broadcast per core
  /// (island-major flat order), writing each core's dynamic + leakage total.
  /// Element-wise bit-identical to core_power() on the same inputs (the
  /// leakage exponential evaluates through util::exp_fast on both paths).
  /// The per-core loop is branch-free and GCC vectorizes it; that needs
  /// -fno-trapping-math, which cpm_util sets (see docs/SIMULATOR.md). The
  /// output spans must not overlap the inputs or each other (the kernel's
  /// pointers are __restrict).
  /// Island sums are left to the caller. When `out_leak_w` is non-empty,
  /// each core's leakage share is also written there; an empty span writes
  /// nothing and costs nothing. Every span must have length
  /// out_total_w.size() (out_leak_w may also be empty), else
  /// std::invalid_argument.
  void chip_power_batch(std::span<const double> utilization,
                        std::span<const double> activity_busy,
                        std::span<const double> activity_idle,
                        std::span<const double> ceff_scale,
                        std::span<const double> voltage,
                        std::span<const double> freq_ghz,
                        std::span<const double> leak_mult,
                        std::span<const double> temps_c,
                        std::span<double> out_total_w,
                        std::span<double> out_leak_w = {}) const;

  /// Maximum chip power for this mix: every core at the top DVFS level, full
  /// utilization, its own activity/capacitance, leakage at the reference
  /// temperature + `thermal_margin_c`.
  units::Watts max_chip_power(const workload::Mix& mix,
                              double thermal_margin_c = 25.0) const;

  double island_leak_mult(std::size_t island_idx) const noexcept;
  const DynamicPowerModel& dynamic_model() const noexcept { return dynamic_; }
  const LeakageModel& leakage_model() const noexcept { return leakage_; }

 private:
  DynamicPowerModel dynamic_;
  LeakageModel leakage_;
  sim::DvfsTable dvfs_;
  std::vector<double> island_leak_mults_;
};

}  // namespace cpm::power
