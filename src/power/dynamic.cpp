#include "power/dynamic.h"

#include <algorithm>
#include <stdexcept>

namespace cpm::power {

DynamicPowerModel::DynamicPowerModel(double ceff_base_w_per_v2ghz)
    : ceff_base_(ceff_base_w_per_v2ghz) {
  if (ceff_base_ <= 0.0) {
    throw std::invalid_argument("DynamicPowerModel: ceff_base must be > 0");
  }
}

units::Watts DynamicPowerModel::core_power(
    const sim::CoreTick& tick, const sim::DvfsPoint& op) const noexcept {
  return power(units::Volts{op.voltage}, units::GigaHertz{op.freq_ghz},
               tick.utilization, tick.activity, tick.activity_idle,
               tick.ceff_scale);
}

units::Watts DynamicPowerModel::power(units::Volts voltage,
                                      units::GigaHertz freq,
                                      double utilization, double activity_busy,
                                      double activity_idle,
                                      double ceff_scale) const noexcept {
  const double u = std::clamp(utilization, 0.0, 1.0);
  const double effective_activity =
      u * activity_busy + (1.0 - u) * activity_idle;
  return units::Watts{ceff_base_ * ceff_scale * voltage.value() *
                      voltage.value() * freq.value() * effective_activity};
}

}  // namespace cpm::power
