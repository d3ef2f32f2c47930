#include "thermal/rc_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace cpm::thermal {
namespace {

ThermalParams params() {
  ThermalParams p;
  p.ambient_c = 45.0;
  p.vertical_conductance = 0.8;
  p.lateral_conductance = 2.0;
  p.capacitance = 0.02;
  return p;
}

TEST(RcModel, RejectsNonPhysicalParams) {
  ThermalParams bad = params();
  bad.capacitance = 0.0;
  EXPECT_THROW(RcThermalModel(Floorplan(1, 1), bad), std::invalid_argument);
}

TEST(RcModel, StartsAtAmbient) {
  RcThermalModel m(Floorplan(2, 4), params());
  for (const double t : m.temperatures()) EXPECT_DOUBLE_EQ(t, 45.0);
}

TEST(RcModel, SingleNodeSteadyStateAnalytic) {
  // One core, no neighbours: T = T_amb + P/G_v.
  RcThermalModel m(Floorplan(1, 1), params());
  const std::vector<double> p{8.0};
  const auto ss = m.steady_state(p);
  EXPECT_NEAR(ss[0], 45.0 + 8.0 / 0.8, 1e-9);
}

TEST(RcModel, IntegrationConvergesToSteadyState) {
  RcThermalModel m(Floorplan(2, 2), params());
  const std::vector<double> p{10.0, 2.0, 5.0, 1.0};
  for (int i = 0; i < 5000; ++i) m.step(p, 1e-3);  // 5 s >> time constant
  const auto ss = m.steady_state(p);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(m.temperature(i), ss[i], 0.01) << "core " << i;
  }
}

TEST(RcModel, UniformPowerEqualsSingleNodeSolution) {
  // With identical power everywhere, lateral flows vanish.
  RcThermalModel m(Floorplan(2, 4), params());
  const std::vector<double> p(8, 6.0);
  const auto ss = m.steady_state(p);
  for (const double t : ss) EXPECT_NEAR(t, 45.0 + 6.0 / 0.8, 1e-9);
}

TEST(RcModel, HeatSpreadsToNeighbors) {
  RcThermalModel m(Floorplan(1, 3), params());
  const std::vector<double> p{0.0, 9.0, 0.0};
  const auto ss = m.steady_state(p);
  // Middle is hottest; edges warmer than ambient via lateral conduction.
  EXPECT_GT(ss[1], ss[0]);
  EXPECT_NEAR(ss[0], ss[2], 1e-9);  // symmetry
  EXPECT_GT(ss[0], 45.0);
}

TEST(RcModel, MonotoneHeatingUnderConstantPower) {
  RcThermalModel m(Floorplan(1, 1), params());
  const std::vector<double> p{5.0};
  double prev = m.temperature(0);
  for (int i = 0; i < 50; ++i) {
    m.step(p, 1e-4);
    EXPECT_GE(m.temperature(0), prev);
    prev = m.temperature(0);
  }
}

TEST(RcModel, CoolsWhenPowerRemoved) {
  RcThermalModel m(Floorplan(1, 1), params());
  const std::vector<double> heat{10.0}, off{0.0};
  for (int i = 0; i < 1000; ++i) m.step(heat, 1e-3);
  const double hot = m.temperature(0);
  for (int i = 0; i < 5000; ++i) m.step(off, 1e-3);
  EXPECT_LT(m.temperature(0), hot);
  EXPECT_NEAR(m.temperature(0), 45.0, 0.05);
}

TEST(RcModel, StableWithLargeTimestep) {
  // Internal substepping must keep explicit Euler stable even when the
  // caller's dt exceeds the stability bound.
  RcThermalModel m(Floorplan(2, 4), params());
  const std::vector<double> p(8, 5.0);
  for (int i = 0; i < 100; ++i) m.step(p, 0.1);  // dt >> 2C/G
  for (const double t : m.temperatures()) {
    EXPECT_GT(t, 45.0);
    EXPECT_LT(t, 60.0);  // bounded, no oscillatory blow-up
  }
}

TEST(RcModel, ResetRestoresTemperature) {
  RcThermalModel m(Floorplan(1, 2), params());
  m.step(std::vector<double>{5.0, 5.0}, 0.01);
  m.reset(50.0);
  EXPECT_DOUBLE_EQ(m.temperature(0), 50.0);
  EXPECT_DOUBLE_EQ(m.temperature(1), 50.0);
}

TEST(RcModel, SizeMismatchThrows) {
  RcThermalModel m(Floorplan(2, 2), params());
  EXPECT_THROW(m.step(std::vector<double>{1.0}, 1e-3), std::invalid_argument);
  EXPECT_THROW(m.steady_state(std::vector<double>{1.0, 2.0}), std::invalid_argument);
}

TEST(RcModel, MaxTemperature) {
  RcThermalModel m(Floorplan(1, 3), params());
  const std::vector<double> p{0.0, 9.0, 0.0};
  for (int i = 0; i < 2000; ++i) m.step(p, 1e-3);
  EXPECT_DOUBLE_EQ(m.max_temperature(), m.temperature(1));
}

/// The previous step(), kept as the bit-level reference: the substep split
/// and 1/C derived on every call instead of once per distinct dt.
struct PerCallReference {
  Floorplan floorplan;
  ThermalParams p;
  std::vector<double> temps;
  double spreader;

  PerCallReference(Floorplan fp, ThermalParams params)
      : floorplan(std::move(fp)), p(params),
        temps(floorplan.num_cores(), params.ambient_c),
        spreader(params.ambient_c) {}

  void step(const std::vector<double>& power, double dt) {
    std::size_t max_degree = 0;
    for (std::size_t i = 0; i < temps.size(); ++i) {
      max_degree = std::max(max_degree, floorplan.neighbors(i).size());
    }
    double max_dt = p.capacitance / (p.vertical_conductance +
                                     static_cast<double>(max_degree) *
                                         p.lateral_conductance);
    if (p.two_layer) {
      max_dt = std::min(
          max_dt, p.spreader_capacitance /
                      (p.spreader_to_ambient_conductance +
                       p.vertical_conductance *
                           static_cast<double>(temps.size())));
    }
    const std::size_t substeps = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(dt / max_dt)));
    const double h = dt / static_cast<double>(substeps);
    const double inv_c = 1.0 / p.capacitance;
    std::vector<double> next(temps.size());
    for (std::size_t s = 0; s < substeps; ++s) {
      const double below = p.two_layer ? spreader : p.ambient_c;
      double into_spreader = 0.0;
      for (std::size_t i = 0; i < temps.size(); ++i) {
        const double vertical = p.vertical_conductance * (temps[i] - below);
        double flow = power[i] - vertical;
        into_spreader += vertical;
        for (const std::size_t j : floorplan.neighbors(i)) {
          flow -= p.lateral_conductance * (temps[i] - temps[j]);
        }
        next[i] = temps[i] + h * flow * inv_c;
      }
      if (p.two_layer) {
        const double out = p.spreader_to_ambient_conductance *
                           (spreader - p.ambient_c);
        spreader += h * (into_spreader - out) / p.spreader_capacitance;
      }
      temps.swap(next);
    }
  }
};

TEST(RcModel, CachedSubstepSplitBitIdenticalToPerCallReference) {
  // Several grids, one- and two-layer, with dt changes and a multi-substep
  // dt along the way, so the cached split must follow every change.
  const std::vector<std::pair<std::size_t, std::size_t>> grids = {
      {1, 1}, {1, 5}, {2, 2}, {3, 5}, {8, 8}};
  for (const auto& [rows, cols] : grids) {
    for (const bool two_layer : {false, true}) {
      ThermalParams prm = params();
      prm.two_layer = two_layer;
      RcThermalModel model(Floorplan(rows, cols), prm);
      PerCallReference ref(Floorplan(rows, cols), prm);
      util::Xoshiro256pp rng(rows * 100 + cols + (two_layer ? 7 : 0));
      std::vector<double> power(rows * cols);
      for (int t = 0; t < 300; ++t) {
        for (double& w : power) w = rng.uniform(0.0, 12.0);
        const double dt = t < 100 ? 1e-4 : (t < 150 ? 5e-3 : 2.5e-4);
        model.step(power, dt);
        ref.step(power, dt);
        for (std::size_t i = 0; i < power.size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(model.temperature(i)),
                    std::bit_cast<std::uint64_t>(ref.temps[i]))
              << rows << "x" << cols << (two_layer ? " two-layer" : "")
              << " tick " << t << " core " << i;
        }
        ASSERT_EQ(std::bit_cast<std::uint64_t>(model.spreader_temperature()),
                  std::bit_cast<std::uint64_t>(ref.spreader));
      }
    }
  }
}

}  // namespace
}  // namespace cpm::thermal
