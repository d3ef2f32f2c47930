// HotLeakage-style static power model:
//   P_leak = k_design * leak_mult * V * exp(beta * (T - T0))
// leak_mult carries intra-die process variation (paper Sec. IV-B assumes
// islands at 1.2x / 1.5x / 2.0x the leakage of the least leaky island); the
// exponential captures the leakage-temperature feedback HotLeakage models.
//
// Every leakage path evaluates the exponential through util::exp_fast (the
// deterministic ~1e-11-relative straight-line exp), so the scalar and the
// whole-chip batched power paths agree bit-for-bit.
#pragma once

#include "util/units.h"

namespace cpm::power {

class LeakageModel {
 public:
  /// `k_design`: watts per volt per core at T0 with leak_mult 1.
  LeakageModel(units::WattsPerVolt k_design, double temp_beta,
               double ref_temp_c);

  units::Watts core_power(units::Volts voltage, double temp_c,
                          double leak_mult = 1.0) const noexcept;

  double ref_temp_c() const noexcept { return ref_temp_c_; }
  double k_design() const noexcept { return k_design_; }
  double temp_beta() const noexcept { return beta_; }

 private:
  double k_design_;
  double beta_;
  double ref_temp_c_;
};

}  // namespace cpm::power
