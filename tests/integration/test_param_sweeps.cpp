// Parameterized property sweeps across module boundaries: PID design-space
// consistency (algebraic stability vs simulated convergence) and DVFS
// actuator optimality.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "control/analysis.h"
#include "control/pid.h"
#include "control/stability.h"
#include "sim/dvfs.h"
#include "util/units.h"

namespace cpm {
namespace {

// ---------------------------------------------------------------------------
// PID design space: the algebraic stability verdict (Jury) must agree with
// root placement AND with what actually happens when the loop is simulated.
// ---------------------------------------------------------------------------
class PidDesignSweep
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(PidDesignSweep, AlgebraMatchesSimulation) {
  const auto [kp, ki, a] = GetParam();
  const control::PidGains gains{kp, ki, 0.3};
  const auto cl = control::cpm_closed_loop(units::PercentPerGhz{a}, gains);
  const bool stable_roots = control::analyze_stability(cl).stable;
  const bool stable_jury = control::jury_stable(cl.denominator());
  EXPECT_EQ(stable_roots, stable_jury);

  // Simulate the raw loop (no clamps) and classify by boundedness.
  control::PidConfig cfg;
  cfg.gains = gains;
  control::PidController pid(cfg);
  double power = 0.0;
  double late_max = 0.0;
  for (int t = 0; t < 400; ++t) {
    power += a * pid.update(10.0 - power);
    if (t > 300) late_max = std::max(late_max, std::abs(power - 10.0));
  }
  if (stable_roots) {
    EXPECT_LT(late_max, 1.0) << "stable loop did not converge";
  } else {
    EXPECT_GT(late_max, 5.0) << "unstable loop looked converged";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Gains, PidDesignSweep,
    ::testing::Combine(::testing::Values(0.2, 0.4, 0.8),
                       ::testing::Values(0.2, 0.4),
                       ::testing::Values(0.4, 0.79, 1.3, 2.6)));

// ---------------------------------------------------------------------------
// DVFS actuator: nearest-level quantization is optimal.
// ---------------------------------------------------------------------------
class DvfsRequestSweep : public ::testing::TestWithParam<double> {};

TEST_P(DvfsRequestSweep, NearestLevelMinimizesError) {
  const double request = GetParam();
  const sim::DvfsTable& table = sim::DvfsTable::pentium_m();
  sim::DvfsActuator act(table, 0, 0.005, 0.5e-3);
  act.request_frequency(units::GigaHertz{request});
  const double chosen = act.operating_point().freq_ghz;
  for (std::size_t l = 0; l < table.num_levels(); ++l) {
    EXPECT_LE(std::abs(chosen - request),
              std::abs(table.level(l).freq_ghz - request) + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Requests, DvfsRequestSweep,
                         ::testing::Values(0.0, 0.61, 0.95, 1.234, 1.5, 1.77,
                                           1.99, 3.5));

}  // namespace
}  // namespace cpm
