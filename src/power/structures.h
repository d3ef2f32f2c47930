// Wattch-style structural power breakdown: per-microarchitectural-unit
// dynamic power, derived from the Table I configuration (widths, register
// file, scheduler and cache geometries) and per-tick activity. Wattch's core
// idea is that each structure's effective capacitance scales with its
// geometry (ports ~ width, size, associativity) and its per-cycle access
// count follows the instruction mix; this module reproduces that accounting
// at the abstraction level the paper consumes (the aggregate matches the
// DynamicPowerModel the controllers see; the breakdown feeds analysis and
// the bench_ext_power_breakdown table).
#pragma once

#include <array>
#include <string_view>
#include <vector>

#include "sim/config.h"
#include "workload/profile.h"

namespace cpm::power {

enum class Unit : std::size_t {
  kFetch = 0,      // icache + fetch pipe
  kBranchPred,
  kRename,
  kScheduler,      // issue window
  kRegisterFile,
  kIntAlu,
  kFpAlu,
  kDCache,
  kL2,
  kClockTree,
  kCount,
};

std::string_view unit_name(Unit unit);

struct UnitPower {
  Unit unit = Unit::kFetch;
  double watts = 0.0;
  double share = 0.0;  // fraction of the core's dynamic power
};

class StructuralPowerModel {
 public:
  /// Builds per-unit effective capacitances from the CMP configuration.
  /// The total is normalized so that a fully active core at the top DVFS
  /// point matches `config.ceff_base_w_per_v2ghz` (the aggregate model the
  /// controllers are calibrated against).
  explicit StructuralPowerModel(const sim::CmpConfig& config);

  /// Per-unit dynamic power for a core running code with instruction mix
  /// `mix` at `utilization`, operating point (voltage, freq_ghz). Idle
  /// structures draw `idle_factor` of their active power (cc3-style gating).
  std::vector<UnitPower> breakdown(const workload::InstructionMix& mix,
                                   double utilization, units::Volts voltage,
                                   units::GigaHertz freq,
                                   double idle_factor = 0.1) const;

  /// Sum of the breakdown (same inputs).
  units::Watts total_power(const workload::InstructionMix& mix,
                           double utilization, units::Volts voltage,
                           units::GigaHertz freq,
                           double idle_factor = 0.1) const;

  /// The unit's geometric effective capacitance (W per V^2 GHz at full
  /// activity), before activity weighting.
  double unit_ceff(Unit unit) const noexcept;

 private:
  /// Per-unit activity factor for a given instruction mix (how often the
  /// unit is exercised per committed instruction).
  static std::array<double, static_cast<std::size_t>(Unit::kCount)>
  activity_factors(const workload::InstructionMix& mix);

  std::array<double, static_cast<std::size_t>(Unit::kCount)> ceff_{};
};

}  // namespace cpm::power
