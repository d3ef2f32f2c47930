#include "thermal/rc_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "util/isa.h"
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

/// Expects the constructor to reject `field` set to each of `values`, in
/// one- or two-layer mode, on a 1x2 floorplan.
void expect_rejected(double ThermalParams::*field,
                     std::initializer_list<double> values, bool two_layer) {
  for (const double value : values) {
    ThermalParams bad = params();
    bad.two_layer = two_layer;
    bad.*field = value;
    EXPECT_THROW(RcThermalModel(Floorplan(1, 2), bad), std::invalid_argument)
        << value;
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(RcModel, RejectsNonFiniteAmbient) {
  expect_rejected(&ThermalParams::ambient_c, {kNaN, kInf, -kInf}, false);
}

TEST(RcModel, RejectsNonFiniteVerticalConductance) {
  expect_rejected(&ThermalParams::vertical_conductance, {kNaN, kInf}, false);
}

TEST(RcModel, RejectsNegativeOrNonFiniteLateralConductance) {
  // A negative lateral conductance made the stable-step bound negative, and
  // step() then cast a negative substep count to size_t.
  expect_rejected(&ThermalParams::lateral_conductance, {-1.0, kNaN, kInf},
                  false);
  ThermalParams none = params();
  none.lateral_conductance = 0.0;  // isolated cores are physical
  RcThermalModel model(Floorplan(1, 2), none);
  model.step(std::vector<double>{1.0, 0.0}, 1.0);
  EXPECT_GT(model.temperature(0), none.ambient_c);
  EXPECT_EQ(model.temperature(1), none.ambient_c);
}

TEST(RcModel, RejectsNonFiniteCapacitance) {
  expect_rejected(&ThermalParams::capacitance, {kNaN, kInf}, false);
}

TEST(RcModel, RejectsNonPositiveOrNonFiniteSpreaderCapacitance) {
  expect_rejected(&ThermalParams::spreader_capacitance, {0.0, -2.0, kNaN},
                  true);
  // Non-finite is rejected in one-layer mode too.
  expect_rejected(&ThermalParams::spreader_capacitance, {kNaN, kInf}, false);
}

TEST(RcModel, RejectsNegativeOrNonFiniteSpreaderToAmbientConductance) {
  expect_rejected(&ThermalParams::spreader_to_ambient_conductance,
                  {-1.0, kNaN, kInf}, true);
  expect_rejected(&ThermalParams::spreader_to_ambient_conductance, {kNaN},
                  false);
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

TEST(RcModel, RejectsNonFiniteOrNonPositiveDt) {
  // The substep count is a size_t cast of dt over the stability bound: NaN
  // and +inf do not fit, and a negative dt would step the grid backwards.
  RcThermalModel m(Floorplan(2, 2), params());
  const std::vector<double> p(4, 5.0);
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(), -1e-4, 0.0,
                        1e300};
  for (const double dt : bad) {
    EXPECT_THROW(m.step(p, dt), std::invalid_argument) << dt;
    for (const double t : m.temperatures()) EXPECT_EQ(t, 45.0) << dt;
  }
  // A good dt after the rejected ones, and after a cached one.
  m.step(p, 1e-4);
  EXPECT_THROW(m.step(p, -1e-4), std::invalid_argument);
  EXPECT_GT(m.temperature(0), 45.0);
}

TEST(RcModel, StackedChipsStepEachAsAlone) {
  // A batch of chips shares one stacked grid; the edge flags make every
  // chip boundary an edge, so each chip steps bit for bit as a model of its
  // own, one- and two-layer (one spreader per chip).
  for (const auto& [rows, cols] :
       std::vector<std::pair<std::size_t, std::size_t>>{{1, 1}, {1, 4}, {2, 2},
                                                        {3, 5}}) {
    for (const bool two_layer : {false, true}) {
      ThermalParams prm = params();
      prm.two_layer = two_layer;
      const Floorplan fp(rows, cols);
      const std::size_t n = fp.num_cores();
      const std::size_t chips = 3;
      RcThermalModel batch(fp, prm, chips);
      ASSERT_EQ(batch.num_chips(), chips);
      std::vector<RcThermalModel> solo(chips, RcThermalModel(fp, prm));
      util::Xoshiro256pp rng(rows * 10 + cols + (two_layer ? 5 : 0));
      std::vector<double> power(chips * n);
      for (int t = 0; t < 200; ++t) {
        // Chips far apart in power, so a leak across a boundary shows.
        for (std::size_t g = 0; g < power.size(); ++g) {
          power[g] = rng.uniform(0.0, 4.0) + 8.0 * static_cast<double>(g / n);
        }
        const double dt = t < 150 ? 1e-4 : 5e-3;
        batch.step(power, dt);
        for (std::size_t k = 0; k < chips; ++k) {
          solo[k].step(std::span(power).subspan(k * n, n), dt);
          const auto temps = batch.chip_temperatures(k);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(temps[i]),
                      std::bit_cast<std::uint64_t>(solo[k].temperature(i)))
                << rows << "x" << cols << (two_layer ? " two-layer" : "")
                << " tick " << t << " chip " << k << " core " << i;
          }
          ASSERT_EQ(
              std::bit_cast<std::uint64_t>(batch.spreader_temperature(k)),
              std::bit_cast<std::uint64_t>(solo[k].spreader_temperature()));
          ASSERT_EQ(batch.max_temperature(k), solo[k].max_temperature());
        }
      }
    }
  }
}

TEST(RcModel, MaxTemperature) {
  RcThermalModel m(Floorplan(1, 3), params());
  const std::vector<double> p{0.0, 9.0, 0.0};
  for (int i = 0; i < 2000; ++i) m.step(p, 1e-3);
  EXPECT_DOUBLE_EQ(m.max_temperature(), m.temperature(1));
}

/// The per-core adjacency walk the grid stencil replaced, kept as step()'s
/// bit-level oracle: a flat CSR copy of the floorplan's neighbour lists,
/// walked in list order for every core, with the substep split and 1/C
/// derived on every call instead of once per distinct dt.
struct CsrReference {
  ThermalParams p;
  std::vector<std::size_t> offsets{0};
  std::vector<std::size_t> ids;
  std::vector<double> temps;
  std::vector<double> next;
  double spreader;
  double max_stable_dt;
  double h = 0.0;

  CsrReference(const Floorplan& fp, ThermalParams params)
      : p(params), temps(fp.num_cores(), params.ambient_c),
        next(fp.num_cores()), spreader(params.ambient_c) {
    std::size_t max_degree = 0;
    for (std::size_t i = 0; i < fp.num_cores(); ++i) {
      const auto& nbrs = fp.neighbors(i);
      max_degree = std::max(max_degree, nbrs.size());
      ids.insert(ids.end(), nbrs.begin(), nbrs.end());
      offsets.push_back(ids.size());
    }
    max_stable_dt = p.capacitance /
                    (p.vertical_conductance +
                     static_cast<double>(max_degree) * p.lateral_conductance);
    if (p.two_layer) {
      max_stable_dt = std::min(
          max_stable_dt,
          p.spreader_capacitance /
              (p.spreader_to_ambient_conductance +
               p.vertical_conductance * static_cast<double>(temps.size())));
    }
  }

  /// One substep's core update, into `out`; returns the spreader inflow.
  double substep(const double* in, const std::vector<double>& power,
                 double below, double* out) const {
    const double inv_c = 1.0 / p.capacitance;
    double into_spreader = 0.0;
    for (std::size_t i = 0; i < temps.size(); ++i) {
      const double vertical = p.vertical_conductance * (in[i] - below);
      double flow = power[i] - vertical;
      into_spreader += vertical;
      for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
        flow -= p.lateral_conductance * (in[i] - in[ids[k]]);
      }
      out[i] = in[i] + h * flow * inv_c;
    }
    return into_spreader;
  }

  void step(const std::vector<double>& power, double dt) {
    const std::size_t substeps = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(dt / max_stable_dt)));
    h = dt / static_cast<double>(substeps);
    for (std::size_t s = 0; s < substeps; ++s) {
      const double below = p.two_layer ? spreader : p.ambient_c;
      const double into_spreader =
          substep(temps.data(), power, below, next.data());
      if (p.two_layer) {
        const double out = p.spreader_to_ambient_conductance *
                           (spreader - p.ambient_c);
        spreader += h * (into_spreader - out) / p.spreader_capacitance;
      }
      temps.swap(next);
    }
  }

  void reset(double temp_c) {
    std::fill(temps.begin(), temps.end(), temp_c);
    spreader = p.two_layer ? temp_c : p.ambient_c;
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
      CsrReference ref(Floorplan(rows, cols), prm);
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

/// True when a and b hold the same bits, or are both NaN: where two NaN
/// operands meet, x86 returns the first one's payload, and operand order
/// within a commutative operation is the compiler's choice per loop.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

const std::vector<std::pair<std::size_t, std::size_t>>& stencil_grids() {
  static const std::vector<std::pair<std::size_t, std::size_t>> grids = {
      {1, 1}, {1, 7}, {7, 1}, {2, 2}, {2, 4}, {3, 5}, {8, 8}};
  return grids;
}

TEST(RcStencil, MatchesCsrOracleBitForBit) {
  // Ticks 0-99 one substep each, 100-149 several, with non-finite and
  // signed-zero powers and resets (to ambient, -0.0, +-inf and NaN, then
  // back to a finite value) along the way.
  for (const auto& [rows, cols] : stencil_grids()) {
    for (const bool two_layer : {false, true}) {
      ThermalParams prm = params();
      prm.two_layer = two_layer;
      const Floorplan fp(rows, cols);
      RcThermalModel model(fp, prm);
      CsrReference ref(fp, prm);
      util::Xoshiro256pp rng(rows * 131 + cols + (two_layer ? 17 : 0));
      std::vector<double> power(fp.num_cores());
      for (int t = 0; t < 200; ++t) {
        for (double& w : power) w = rng.uniform(0.0, 12.0);
        const std::size_t hit = rng.uniform_int(power.size());
        switch (t) {
          case 20: power[hit] = -0.0; break;
          case 30: std::fill(power.begin(), power.end(), -0.0); break;
          case 40: power[hit] = kInf; break;
          case 45: power[hit] = -kInf; break;
          case 60: power[hit] = kNaN; break;
          default: break;
        }
        const std::pair<int, double> resets[] = {
            {43, 45.0}, {50, 45.0}, {70, -0.0}, {75, kInf}, {78, -kInf},
            {81, kNaN}, {84, 50.0}, {160, -0.0}, {170, 60.0}};
        for (const auto& [at, temp] : resets) {
          if (t == at) {
            model.reset(temp);
            ref.reset(temp);
          }
        }
        const double dt = t < 100 ? 1e-4 : (t < 150 ? 7e-3 : 2.5e-4);
        model.step(power, dt);
        ref.step(power, dt);
        const auto temps = model.temperatures();
        ASSERT_EQ(temps.size(), ref.temps.size());
        for (std::size_t i = 0; i < temps.size(); ++i) {
          ASSERT_TRUE(same_bits(temps[i], ref.temps[i]))
              << rows << "x" << cols << (two_layer ? " two-layer" : "")
              << " tick " << t << " core " << i << ": " << temps[i]
              << " vs " << ref.temps[i];
        }
        ASSERT_TRUE(same_bits(model.spreader_temperature(), ref.spreader))
            << rows << "x" << cols << " tick " << t;
      }
    }
  }
}

TEST(RcStencil, KernelMatchesCsrOracleOnAnyTemperatures) {
  // One substep from temperatures no reset can set up: every core its own
  // value, NaN, +-inf and -0.0 among them. The halo rows hold NaN, which an
  // edge core's selected-out term must never let through.
  const double special[] = {kNaN, kInf, -kInf, -0.0, 0.0};
  for (const auto& [rows, cols] : stencil_grids()) {
    const Floorplan fp(rows, cols);
    const std::size_t n = fp.num_cores();
    ThermalParams prm = params();
    CsrReference ref(fp, prm);
    ref.h = 1e-4;
    util::Xoshiro256pp rng(rows * 7 + cols);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> padded((rows + 2) * cols, kNaN);
      double* temps = padded.data() + cols;
      std::vector<double> power(n);
      for (std::size_t i = 0; i < n; ++i) {
        temps[i] = rng.uniform_int(4) == 0 ? special[rng.uniform_int(5)]
                                           : rng.uniform(30.0, 110.0);
        power[i] = rng.uniform_int(4) == 0 ? special[rng.uniform_int(5)]
                                           : rng.uniform(0.0, 12.0);
      }
      // Edge flags from the floorplan's neighbour lists.
      std::vector<double> edge(4 * n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        for (const std::size_t j : fp.neighbors(i)) {
          const std::size_t side = j + cols == i ? 0
                                   : j == i + cols ? 1
                                   : j + 1 == i    ? 2
                                                   : 3;
          edge[side * n + i] = 1.0;
        }
      }
      const double below = trial % 2 == 0 ? prm.ambient_c : 52.5;
      std::vector<double> expected(n);
      ref.substep(temps, power, below, expected.data());
      for (const util::Isa isa : util::host_isas()) {
        std::vector<double> next(n, -1.0);
        kernels::rc_step(isa, n, cols,
                         {below, prm.vertical_conductance,
                          prm.lateral_conductance, ref.h,
                          1.0 / prm.capacitance},
                         temps, power.data(), edge.data(), n, next.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(same_bits(next[i], expected[i]))
              << rows << "x" << cols << " " << util::isa_name(isa)
              << " trial " << trial << " core " << i << ": " << next[i]
              << " vs " << expected[i];
        }
      }
    }
  }
}

}  // namespace
}  // namespace cpm::thermal
