// Eqs. 9-13: the paper's control-theoretic derivation, re-done numerically.
// Prints the closed-loop transfer function's poles for the nominal design
// (a_i = 0.79, PID gains 0.4/0.4/0.3), verifies stability, and re-derives
// the gain-robustness range 0 < g < ~2.1 of the "Stability Guarantees"
// paragraph (Eq. 13).
#include <complex>
#include <cstdio>

#include "bench_util.h"
#include "control/stability.h"
#include "util/units.h"

int main() {
  using namespace cpm;
  bench::header("Eqs. 9-13", "closed-loop pole placement & stability range");

  const control::PidGains gains{};  // (0.4, 0.4, 0.3)
  std::printf("  plant: P(z) = a/(z-1), PID gains (Kp,Ki,Kd) = (%.1f, %.1f, %.1f)\n",
              gains.kp, gains.ki, gains.kd);

  for (const double a : {0.79, 1.2, 1.66, 2.79}) {
    const control::StabilityReport rep = control::analyze_cpm_loop(units::PercentPerGhz{a}, gains);
    std::printf("  a = %.2f: spectral radius %.4f (%s), poles:", a,
                rep.spectral_radius, rep.stable ? "stable" : "UNSTABLE");
    for (const auto& p : rep.poles) {
      std::printf(" (%.3f%+.3fi)", p.real(), p.imag());
    }
    std::printf("\n");
  }

  const auto cl = control::cpm_closed_loop(units::PercentPerGhz{0.79}, gains);
  std::printf("\n  Eq. 12 check: closed-loop numerator leading coefficient = %.3f"
              " (paper: 0.869 = a*(Kp+Ki+Kd))\n",
              cl.numerator().leading_coeff());

  const double g_max = control::stable_gain_upper_bound(units::PercentPerGhz{0.79}, gains);
  std::printf("  Eq. 13 check: stability holds for 0 < g < %.2f (paper: ~2.1);\n"
              "                edge prefactor a*g*(Kp+Ki+Kd) = %.3f (paper: 1.85)\n",
              g_max, 0.79 * g_max * 1.1);

  const bool ok = control::analyze_cpm_loop(units::PercentPerGhz{0.79}, gains).stable &&
                  !control::analyze_cpm_loop(units::PercentPerGhz{2.79}, gains).stable &&
                  g_max > 2.0 && g_max < 2.25;
  return ok ? 0 : 1;
}
