#include "power/model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/fastmath.h"

namespace cpm::power {

namespace {

// The chip_power_batch kernel. Multiplication order mirrors
// DynamicPowerModel::power and LeakageModel::core_power exactly (including
// the util::exp_fast leakage exponential), so it is element-wise
// bit-identical to the scalar core_power() path. The __restrict parameters
// spare GCC the run-time alias checks, and the utilization clamp is the
// same two compare-selects std::clamp performs (NaN and -0.0 pass through
// unchanged), written on values so they if-convert: the loop vectorizes.
template <bool kWriteLeak>
CPM_ALWAYS_INLINE void power_sweep_body(
    std::size_t n, const kernels::PowerSweepArgs& args,
    const double* __restrict u_in, const double* __restrict ab,
    const double* __restrict ai, const double* __restrict cs,
    const double* __restrict v, const double* __restrict f,
    const double* __restrict lm, const double* __restrict t,
    double* __restrict out, double* __restrict leak_out) noexcept {
  const double ceff_base = args.ceff_base;
  const double k_design = args.k_design;
  const double beta = args.beta;
  const double ref_c = args.ref_c;
  // vectorize: power.chip_power_batch
  for (std::size_t i = 0; i < n; ++i) {
    double u = u_in[i];
    u = u < 0.0 ? 0.0 : u;
    u = 1.0 < u ? 1.0 : u;
    const double effective_activity = u * ab[i] + (1.0 - u) * ai[i];
    const double dyn =
        ceff_base * cs[i] * v[i] * v[i] * f[i] * effective_activity;
    const double leak =
        k_design * lm[i] * v[i] * util::exp_fast(beta * (t[i] - ref_c));
    if constexpr (kWriteLeak) leak_out[i] = leak;
    out[i] = dyn + leak;
  }
}

// One instantiation per leakage output, so the tick hot loop (no leakage
// output) carries no per-core store or branch for it.
CPM_ALWAYS_INLINE void power_sweep_columns(
    std::size_t n, const kernels::PowerSweepArgs& args, const double* u,
    const double* ab, const double* ai, const double* cs, const double* v,
    const double* f, const double* lm, const double* t, double* out,
    double* leak_out) noexcept {
  if (leak_out == nullptr) {
    power_sweep_body<false>(n, args, u, ab, ai, cs, v, f, lm, t, out, nullptr);
  } else {
    power_sweep_body<true>(n, args, u, ab, ai, cs, v, f, lm, t, out, leak_out);
  }
}

}  // namespace

namespace kernels {

void power_sweep(util::Isa isa, std::size_t n, const PowerSweepArgs& args,
                 const double* utilization, const double* activity_busy,
                 const double* activity_idle, const double* ceff_scale,
                 const double* voltage, const double* freq_ghz,
                 const double* leak_mult, const double* temps_c,
                 double* out_total_w, double* out_leak_w) noexcept {
  util::dispatch_kernel<&power_sweep_columns>(
      isa, n, args, utilization, activity_busy, activity_idle, ceff_scale,
      voltage, freq_ghz, leak_mult, temps_c, out_total_w, out_leak_w);
}

}  // namespace kernels

PowerModel::PowerModel(const sim::CmpConfig& config,
                       std::vector<double> island_leak_mults)
    : dynamic_(config.ceff_base_w_per_v2ghz),
      leakage_(units::WattsPerVolt{config.leakage_w_per_v},
               config.leakage_temp_beta, config.leakage_ref_temp_c),
      dvfs_(config.dvfs),
      island_leak_mults_(std::move(island_leak_mults)) {
  if (!island_leak_mults_.empty() &&
      island_leak_mults_.size() != config.num_islands) {
    throw std::invalid_argument(
        "PowerModel: leak multipliers must match island count");
  }
}

double PowerModel::island_leak_mult(std::size_t island_idx) const noexcept {
  if (island_idx < island_leak_mults_.size()) {
    return island_leak_mults_[island_idx];
  }
  return 1.0;
}

PowerBreakdown PowerModel::core_power(const sim::CoreTick& tick,
                                      const sim::DvfsPoint& op,
                                      std::size_t island_idx,
                                      double temp_c) const {
  PowerBreakdown out;
  out.dynamic_w = dynamic_.core_power(tick, op).value();
  out.leakage_w =
      leakage_
          .core_power(units::Volts{op.voltage}, temp_c,
                      island_leak_mult(island_idx))
          .value();
  return out;
}

void PowerModel::chip_power_batch(
    std::span<const double> utilization, std::span<const double> activity_busy,
    std::span<const double> activity_idle, std::span<const double> ceff_scale,
    std::span<const double> voltage, std::span<const double> freq_ghz,
    std::span<const double> leak_mult, std::span<const double> temps_c,
    std::span<double> out_total_w, std::span<double> out_leak_w) const {
  const std::size_t n = out_total_w.size();
  if (utilization.size() != n || activity_busy.size() != n ||
      activity_idle.size() != n || ceff_scale.size() != n ||
      voltage.size() != n || freq_ghz.size() != n || leak_mult.size() != n ||
      temps_c.size() != n || (!out_leak_w.empty() && out_leak_w.size() != n)) {
    throw std::invalid_argument("chip_power_batch: span length mismatch");
  }
  const kernels::PowerSweepArgs args{dynamic_.ceff_base(), leakage_.k_design(),
                                     leakage_.temp_beta(),
                                     leakage_.ref_temp_c()};
  kernels::power_sweep(util::host_isa(), n, args, utilization.data(),
                       activity_busy.data(), activity_idle.data(),
                       ceff_scale.data(), voltage.data(), freq_ghz.data(),
                       leak_mult.data(), temps_c.data(), out_total_w.data(),
                       out_leak_w.empty() ? nullptr : out_leak_w.data());
}

units::Watts PowerModel::max_chip_power(const workload::Mix& mix,
                                        double thermal_margin_c) const {
  const sim::DvfsPoint top = dvfs_.level(dvfs_.max_level());
  const double hot_temp = leakage_.ref_temp_c() + thermal_margin_c;
  units::Watts total{};
  for (std::size_t i = 0; i < mix.islands.size(); ++i) {
    for (const auto* profile : mix.islands[i]) {
      total += dynamic_.power(units::Volts{top.voltage},
                              units::GigaHertz{top.freq_ghz},
                              /*utilization=*/1.0, profile->activity_active,
                              profile->activity_idle, profile->ceff_scale);
      total += leakage_.core_power(units::Volts{top.voltage}, hot_temp,
                                   island_leak_mult(i));
    }
  }
  return total;
}

}  // namespace cpm::power
