#include "power/model.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"
#include "util/units.h"
#include "workload/mixes.h"

namespace cpm::power {
namespace {

sim::CmpConfig default_cfg() { return sim::CmpConfig::default_8core(); }

sim::CoreTick busy_tick() {
  sim::CoreTick t;
  t.utilization = 0.8;
  t.activity = 0.9;
  t.activity_idle = 0.1;
  t.ceff_scale = 1.0;
  return t;
}

TEST(PowerModel, RejectsWrongLeakVectorSize) {
  EXPECT_THROW(PowerModel(default_cfg(), {1.0, 1.0}), std::invalid_argument);
}

TEST(PowerModel, DefaultLeakMultIsOne) {
  PowerModel m(default_cfg());
  EXPECT_DOUBLE_EQ(m.island_leak_mult(0), 1.0);
  EXPECT_DOUBLE_EQ(m.island_leak_mult(3), 1.0);
}

TEST(PowerModel, LeakMultsApplyPerIsland) {
  PowerModel m(default_cfg(), {1.2, 1.5, 2.0, 1.0});
  EXPECT_DOUBLE_EQ(m.island_leak_mult(2), 2.0);
  const sim::DvfsPoint op{1.0, 1.0};
  const PowerBreakdown leaky = m.core_power(busy_tick(), op, 2, 55.0);
  const PowerBreakdown normal = m.core_power(busy_tick(), op, 3, 55.0);
  EXPECT_DOUBLE_EQ(leaky.dynamic_w, normal.dynamic_w);
  EXPECT_DOUBLE_EQ(leaky.leakage_w, 2.0 * normal.leakage_w);
}

TEST(PowerModel, BreakdownTotalIsSum) {
  PowerModel m(default_cfg());
  const PowerBreakdown p = m.core_power(busy_tick(), {1.1, 1.6}, 0, 60.0);
  EXPECT_GT(p.dynamic_w, 0.0);
  EXPECT_GT(p.leakage_w, 0.0);
  EXPECT_DOUBLE_EQ(p.total(), p.dynamic_w + p.leakage_w);
}

TEST(PowerModel, MaxChipPowerBoundsTypicalDraw) {
  PowerModel m(default_cfg());
  const double max_w = m.max_chip_power(workload::mix1()).value();
  EXPECT_GT(max_w, 0.0);
  // A busy-but-not-max tick at top level must stay below the bound.
  const sim::DvfsPoint top{1.26, 2.0};
  double typical = 0.0;
  for (int core = 0; core < 8; ++core) {
    typical += m.core_power(busy_tick(), top, 0, 70.0).total();
  }
  EXPECT_LT(typical, max_w);
}

TEST(PowerModel, MaxChipPowerScalesWithCores) {
  PowerModel m8(default_cfg());
  PowerModel m16(sim::CmpConfig::scale_16core());
  const double w8 = m8.max_chip_power(workload::mix1()).value();
  const double w16 = m16.max_chip_power(workload::mix3(1)).value();
  EXPECT_GT(w16, w8 * 1.5);
}

TEST(PowerModel, CorePowersBatchMatchesScalarBitExact) {
  // Each core of the whole-chip sweep must reproduce the scalar core_power()
  // path bit-for-bit, total and leakage output (both leakage exponentials
  // run through util::exp_fast).
  sim::CmpConfig cfg = default_cfg();
  PowerModel m(cfg, {1.0, 1.2, 1.5, 2.0});
  util::Xoshiro256pp rng(41);
  for (std::size_t island = 0; island < 4; ++island) {
    const sim::DvfsPoint op = cfg.dvfs.level(2);
    constexpr std::size_t kCores = 5;
    std::vector<double> util_v, ab, ai, cs, temps;
    const std::vector<double> volt(kCores, op.voltage);
    const std::vector<double> freq(kCores, op.freq_ghz);
    const std::vector<double> lm(kCores, m.island_leak_mult(island));
    for (std::size_t i = 0; i < kCores; ++i) {
      util_v.push_back(rng.uniform(0.0, 1.0));
      ab.push_back(rng.uniform(0.3, 1.0));
      ai.push_back(rng.uniform(0.02, 0.2));
      cs.push_back(rng.uniform(0.7, 1.4));
      temps.push_back(rng.uniform(40.0, 95.0));
    }
    std::vector<double> out(kCores, 0.0), leak(kCores, 0.0);
    m.chip_power_batch(util_v, ab, ai, cs, volt, freq, lm, temps, out, leak);
    for (std::size_t i = 0; i < kCores; ++i) {
      sim::CoreTick t;
      t.utilization = util_v[i];
      t.activity = ab[i];
      t.activity_idle = ai[i];
      t.ceff_scale = cs[i];
      const PowerBreakdown p = m.core_power(t, op, island, temps[i]);
      ASSERT_EQ(out[i], p.dynamic_w + p.leakage_w)
          << "island " << island << " core " << i;
      ASSERT_EQ(leak[i], p.leakage_w) << "island " << island << " core " << i;
    }
  }
}

TEST(PowerModel, ChipPowerBatchMatchesPerIslandBitExact) {
  // The whole-chip flat sweep (the plant tick's only power evaluation) must
  // reproduce the scalar core_power() path of each core's island
  // bit-for-bit, on uneven islands with per-island operating points and
  // leakage multipliers and utilizations outside [0, 1] (the clamp). The
  // optional leakage output must not change the totals.
  sim::CmpConfig cfg = default_cfg();
  PowerModel m(cfg, {1.0, 1.2, 1.5, 2.0});
  util::Xoshiro256pp rng(43);
  constexpr std::size_t kIslands = 4;
  const std::size_t sizes[kIslands] = {1, 3, 2, 2};  // uneven on purpose
  std::vector<double> util_v, ab, ai, cs, volt, freq, lm, temps;
  std::vector<std::size_t> island_of;
  for (std::size_t island = 0; island < kIslands; ++island) {
    const sim::DvfsPoint op = cfg.dvfs.level(island % cfg.dvfs.num_levels());
    for (std::size_t c = 0; c < sizes[island]; ++c) {
      util_v.push_back(rng.uniform(-0.2, 1.2));
      ab.push_back(rng.uniform(0.3, 1.0));
      ai.push_back(rng.uniform(0.02, 0.2));
      cs.push_back(rng.uniform(0.7, 1.4));
      volt.push_back(op.voltage);
      freq.push_back(op.freq_ghz);
      lm.push_back(m.island_leak_mult(island));
      temps.push_back(rng.uniform(40.0, 95.0));
      island_of.push_back(island);
    }
  }
  const std::size_t n = util_v.size();
  std::vector<double> total(n, 0.0), leak(n, 0.0), total_only(n, 0.0);
  m.chip_power_batch(util_v, ab, ai, cs, volt, freq, lm, temps, total, leak);
  m.chip_power_batch(util_v, ab, ai, cs, volt, freq, lm, temps, total_only);
  for (std::size_t i = 0; i < n; ++i) {
    sim::CoreTick t;
    t.utilization = util_v[i];
    t.activity = ab[i];
    t.activity_idle = ai[i];
    t.ceff_scale = cs[i];
    const PowerBreakdown p =
        m.core_power(t, {volt[i], freq[i]}, island_of[i], temps[i]);
    ASSERT_EQ(total[i], p.dynamic_w + p.leakage_w) << "core " << i;
    ASSERT_EQ(leak[i], p.leakage_w) << "core " << i;
    ASSERT_EQ(total_only[i], total[i]) << "core " << i;
  }

  std::vector<double> short_temps(temps.begin(), temps.end() - 1);
  EXPECT_THROW(m.chip_power_batch(util_v, ab, ai, cs, volt, freq, lm,
                                  short_temps, total),
               std::invalid_argument);
  std::vector<double> short_leak(n - 1, 0.0);
  EXPECT_THROW(m.chip_power_batch(util_v, ab, ai, cs, volt, freq, lm, temps,
                                  total, short_leak),
               std::invalid_argument);
}

}  // namespace
}  // namespace cpm::power
