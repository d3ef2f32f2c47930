#include "power/leakage.h"

#include <stdexcept>

#include "util/fastmath.h"

namespace cpm::power {

LeakageModel::LeakageModel(units::WattsPerVolt k_design, double temp_beta,
                           double ref_temp_c)
    : k_design_(k_design.value()), beta_(temp_beta), ref_temp_c_(ref_temp_c) {
  if (k_design_ < 0.0) {
    throw std::invalid_argument("LeakageModel: k_design must be >= 0");
  }
}

units::Watts LeakageModel::core_power(units::Volts voltage, double temp_c,
                                      double leak_mult) const noexcept {
  return units::Watts{k_design_ * leak_mult * voltage.value() *
                      util::exp_fast(beta_ * (temp_c - ref_temp_c_))};
}

}  // namespace cpm::power
