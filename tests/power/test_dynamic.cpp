#include "power/dynamic.h"
#include "power/model.h"
#include "util/rng.h"
#include "util/units.h"

#include <gtest/gtest.h>

#include <vector>

namespace cpm::power {
namespace {

TEST(Dynamic, RejectsNonPositiveCeff) {
  EXPECT_THROW(DynamicPowerModel(0.0), std::invalid_argument);
  EXPECT_THROW(DynamicPowerModel(-1.0), std::invalid_argument);
}

TEST(Dynamic, ScalesWithVSquaredF) {
  DynamicPowerModel m(3.5);
  const double base = m.power(units::Volts{1.0}, units::GigaHertz{1.0}, 1.0, 1.0, 0.1, 1.0).value();
  EXPECT_DOUBLE_EQ(m.power(units::Volts{2.0}, units::GigaHertz{1.0}, 1.0, 1.0, 0.1, 1.0).value(), base * 4.0);
  EXPECT_DOUBLE_EQ(m.power(units::Volts{1.0}, units::GigaHertz{2.0}, 1.0, 1.0, 0.1, 1.0).value(), base * 2.0);
  EXPECT_DOUBLE_EQ(m.power(units::Volts{2.0}, units::GigaHertz{2.0}, 1.0, 1.0, 0.1, 1.0).value(), base * 8.0);
}

TEST(Dynamic, CubeLawOverDvfsRange) {
  // With V affine in f (as in the Pentium-M table), P ~ f^3-ish: power at
  // 2 GHz should be well over 4x power at 1 GHz.
  DynamicPowerModel m(3.5);
  const double low = m.power(units::Volts{1.02}, units::GigaHertz{1.0}, 1.0, 1.0, 0.1, 1.0).value();
  const double high = m.power(units::Volts{1.26}, units::GigaHertz{2.0}, 1.0, 1.0, 0.1, 1.0).value();
  EXPECT_GT(high / low, 2.5);
  EXPECT_LT(high / low, 4.0);
}

TEST(Dynamic, LinearInUtilization) {
  DynamicPowerModel m(1.0);
  const double p0 = m.power(units::Volts{1.0}, units::GigaHertz{1.0}, 0.0, 0.8, 0.1, 1.0).value();
  const double p50 = m.power(units::Volts{1.0}, units::GigaHertz{1.0}, 0.5, 0.8, 0.1, 1.0).value();
  const double p100 = m.power(units::Volts{1.0}, units::GigaHertz{1.0}, 1.0, 0.8, 0.1, 1.0).value();
  EXPECT_NEAR(p50, (p0 + p100) / 2.0, 1e-12);
  EXPECT_GT(p100, p0);
}

TEST(Dynamic, ClockGatedIdleFloor) {
  // Fully stalled core still draws the idle-activity share (cc3 gating).
  DynamicPowerModel m(2.0);
  const double idle = m.power(units::Volts{1.0}, units::GigaHertz{1.0}, 0.0, 0.9, 0.1, 1.0).value();
  EXPECT_DOUBLE_EQ(idle, 2.0 * 0.1);
}

TEST(Dynamic, UtilizationClamped) {
  DynamicPowerModel m(1.0);
  EXPECT_DOUBLE_EQ(m.power(units::Volts{1.0}, units::GigaHertz{1.0}, 1.5, 1.0, 0.0, 1.0).value(),
                   m.power(units::Volts{1.0}, units::GigaHertz{1.0}, 1.0, 1.0, 0.0, 1.0).value());
  EXPECT_DOUBLE_EQ(m.power(units::Volts{1.0}, units::GigaHertz{1.0}, -0.5, 1.0, 0.0, 1.0).value(), 0.0);
}

TEST(Dynamic, CoreWattsUsesTickFields) {
  DynamicPowerModel m(3.0);
  sim::CoreTick tick;
  tick.utilization = 0.5;
  tick.activity = 0.8;
  tick.activity_idle = 0.2;
  tick.ceff_scale = 1.5;
  const sim::DvfsPoint op{1.1, 1.4};
  EXPECT_DOUBLE_EQ(m.core_power(tick, op).value(),
                   m.power(units::Volts{1.1}, units::GigaHertz{1.4}, 0.5, 0.8, 0.2, 1.5).value());
}

TEST(Dynamic, CeffScaleMultiplies) {
  DynamicPowerModel m(1.0);
  EXPECT_DOUBLE_EQ(m.power(units::Volts{1.0}, units::GigaHertz{1.0}, 1.0, 1.0, 0.1, 2.0).value(),
                   2.0 * m.power(units::Volts{1.0}, units::GigaHertz{1.0}, 1.0, 1.0, 0.1, 1.0).value());
}

TEST(Dynamic, PowerBatchMatchesScalarBitExact) {
  // The batched chip sweep computes each core's dynamic power with the same
  // operations in the same order as power(), then adds the leakage it also
  // reports, so total == power() + leakage holds bit-for-bit, including at
  // the utilization clamp edges.
  const sim::CmpConfig cfg = sim::CmpConfig::default_8core();
  const PowerModel model(cfg);
  const DynamicPowerModel& m = model.dynamic_model();
  const sim::DvfsPoint op{1.05, 1.4};
  util::Xoshiro256pp rng(29);
  constexpr std::size_t kN = 17;
  std::vector<double> u, ab, ai, cs, temps;
  for (std::size_t i = 0; i < kN; ++i) {
    u.push_back(rng.uniform(-0.2, 1.2));  // include the clamp edges
    ab.push_back(rng.uniform(0.3, 1.0));
    ai.push_back(rng.uniform(0.02, 0.2));
    cs.push_back(rng.uniform(0.7, 1.4));
    temps.push_back(rng.uniform(40.0, 95.0));
  }
  const std::vector<double> volt(kN, op.voltage), freq(kN, op.freq_ghz),
      lm(kN, 1.0);
  std::vector<double> total(kN, 0.0), leak(kN, 0.0);
  model.chip_power_batch(u, ab, ai, cs, volt, freq, lm, temps, total, leak);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(total[i],
              m.power(units::Volts{op.voltage}, units::GigaHertz{op.freq_ghz},
                      u[i], ab[i], ai[i], cs[i])
                      .value() +
                  leak[i])
        << "core " << i;
  }
}

}  // namespace
}  // namespace cpm::power
