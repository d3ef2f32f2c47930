// Wattch-style dynamic power model with linear clock gating (the paper runs
// Wattch's cc3 scheme: unused components still draw a fraction of power).
//
//   P_dyn = Ceff_base * ceff_scale * V^2 * f * (u*act_busy + (1-u)*act_idle)
//
// Because V is monotone (roughly affine) in f over the DVFS table, P_dyn
// follows the cube law of paper Eq. 1 in f, and at a fixed operating point it
// is linear in utilization u — exactly the property the paper's transducer
// exploits (Fig. 6).
#pragma once

#include "sim/core.h"
#include "sim/dvfs.h"
#include "util/units.h"

namespace cpm::power {

class DynamicPowerModel {
 public:
  /// `ceff_base_w_per_v2ghz`: watts per (V^2 * GHz) at activity 1, ceff 1.
  explicit DynamicPowerModel(double ceff_base_w_per_v2ghz);

  /// Dynamic power for one core at operating point `op`.
  units::Watts core_power(const sim::CoreTick& tick,
                          const sim::DvfsPoint& op) const noexcept;

  /// Dynamic power from raw parameters (used for max-power bounds and the
  /// transducer's analytic checks).
  units::Watts power(units::Volts voltage, units::GigaHertz freq,
                     double utilization, double activity_busy,
                     double activity_idle, double ceff_scale) const noexcept;

  double ceff_base() const noexcept { return ceff_base_; }

 private:
  double ceff_base_;
};

}  // namespace cpm::power
