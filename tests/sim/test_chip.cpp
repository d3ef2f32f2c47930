#include "sim/chip.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"
#include "workload/mixes.h"
#include "workload/profile.h"

namespace cpm::sim {
namespace {

TEST(Chip, BuildsFromDefaultConfigAndMix1) {
  Chip chip(CmpConfig::default_8core(), workload::mix1(), 42);
  EXPECT_EQ(chip.num_islands(), 4u);
  EXPECT_EQ(chip.island(0).num_cores(), 2u);
}

TEST(Chip, RejectsTopologyMismatch) {
  CmpConfig cfg = CmpConfig::default_8core();
  cfg.num_islands = 8;  // mix1 has 4 islands
  EXPECT_THROW(Chip(cfg, workload::mix1(), 1), std::invalid_argument);

  CmpConfig cfg2 = CmpConfig::default_8core();
  cfg2.cores_per_island = 4;  // mix1 has 2 cores/island
  EXPECT_THROW(Chip(cfg2, workload::mix1(), 1), std::invalid_argument);
}

TEST(Chip, DeterministicForSameSeed) {
  Chip a(CmpConfig::default_8core(), workload::mix1(), 7);
  Chip b(CmpConfig::default_8core(), workload::mix1(), 7);
  for (int i = 0; i < 200; ++i) {
    const ChipTick ta = a.step(1e-4);
    const ChipTick tb = b.step(1e-4);
    ASSERT_DOUBLE_EQ(ta.total_bips, tb.total_bips);
    ASSERT_DOUBLE_EQ(ta.total_instructions, tb.total_instructions);
  }
}

TEST(Chip, SeedChangesTrace) {
  Chip a(CmpConfig::default_8core(), workload::mix1(), 7);
  Chip b(CmpConfig::default_8core(), workload::mix1(), 8);
  bool differs = false;
  for (int i = 0; i < 50 && !differs; ++i) {
    differs = a.step(1e-4).total_bips != b.step(1e-4).total_bips;
  }
  EXPECT_TRUE(differs);
}

TEST(Chip, AggregatesIslandTicks) {
  Chip chip(CmpConfig::default_8core(), workload::mix1(), 3);
  const ChipTick tick = chip.step(1e-4);
  ASSERT_EQ(tick.islands.size(), 4u);
  double bips = 0.0, instr = 0.0;
  for (const auto& isl : tick.islands) {
    bips += isl.bips;
    instr += isl.instructions;
    EXPECT_EQ(isl.cores.size(), 2u);
  }
  EXPECT_NEAR(tick.total_bips, bips, 1e-9);
  EXPECT_NEAR(tick.total_instructions, instr, 1e-9);
}

TEST(Chip, CongestionCouplesIslands) {
  // Lowering one island's frequency reduces its bandwidth demand and hence
  // the congestion all other islands see.
  CmpConfig cfg = CmpConfig::default_8core();
  cfg.memory_bandwidth_capacity = 1.0;  // force heavy contention
  Chip contended(cfg, workload::mix1(), 5);
  Chip relieved(cfg, workload::mix1(), 5);
  relieved.island(0).actuator().set_level(0);  // slow island 0 only
  relieved.island(0).actuator().consume_stall(1.0);

  double cong_contended = 0.0, cong_relieved = 0.0;
  for (int i = 0; i < 500; ++i) {
    cong_contended += contended.step(1e-4).congestion;
    cong_relieved += relieved.step(1e-4).congestion;
  }
  EXPECT_LT(cong_relieved, cong_contended);
}

TEST(Chip, ScalingConfigsBuild) {
  Chip c16(CmpConfig::scale_16core(), workload::mix3(1), 1);
  EXPECT_EQ(c16.num_islands(), 4u);
  EXPECT_EQ(c16.island(0).num_cores(), 4u);
  Chip c32(CmpConfig::scale_32core(), workload::mix3(2), 1);
  EXPECT_EQ(c32.num_islands(), 8u);
  Chip t8(CmpConfig::thermal_8x1(), workload::thermal_mix(), 1);
  EXPECT_EQ(t8.num_islands(), 8u);
  EXPECT_EQ(t8.island(0).num_cores(), 1u);
}

TEST(Chip, DvfsTransitionStallsWholeIsland) {
  Chip chip(CmpConfig::default_8core(), workload::mix1(), 9);
  // Make a transition, then step one tick: cores should see the stall
  // (the transition stall is 0.5 % of 0.5 ms = 2.5 us; tick 1 us is inside).
  chip.island(0).actuator().set_level(0);
  const ChipTick tick = chip.step(1e-6);
  for (const auto& core : tick.islands[0].cores) {
    EXPECT_DOUBLE_EQ(core.stall_fraction, 1.0);
    EXPECT_DOUBLE_EQ(core.instructions, 0.0);
  }
  // Other islands unaffected.
  for (const auto& core : tick.islands[1].cores) {
    EXPECT_DOUBLE_EQ(core.stall_fraction, 0.0);
  }
}

TEST(Chip, UnevenIslandUtilizationIsCoreWeighted) {
  // Regression: with heterogeneous island sizes, chip utilization must be
  // the core-weighted mean, not the unweighted mean of per-island means
  // (which over-weights small islands). One compute-bound singleton island
  // vs three memory-bound cores keeps the two aggregates far apart.
  CmpConfig cfg = CmpConfig::default_8core();
  cfg.num_islands = 2;
  cfg.cores_per_island = 2;  // total 4 cores; the mix splits them 1 + 3
  workload::Mix mix;
  mix.name = "uneven";
  mix.islands.push_back({&workload::find_profile("blackscholes")});
  mix.islands.push_back({&workload::find_profile("canneal"),
                         &workload::find_profile("canneal"),
                         &workload::find_profile("canneal")});
  Chip chip(cfg, mix, 11);
  ASSERT_EQ(chip.island(0).num_cores(), 1u);
  ASSERT_EQ(chip.island(1).num_cores(), 3u);

  bool aggregates_differ = false;
  for (int i = 0; i < 50; ++i) {
    const ChipTick tick = chip.step(1e-4);
    double weighted = 0.0, cores = 0.0, mean_of_means = 0.0;
    for (const auto& isl : tick.islands) {
      const double size = static_cast<double>(isl.cores.size());
      weighted += isl.utilization * size;
      cores += size;
      mean_of_means += isl.utilization;
    }
    weighted /= cores;
    mean_of_means /= static_cast<double>(tick.islands.size());
    ASSERT_DOUBLE_EQ(tick.utilization, weighted);
    if (std::abs(weighted - mean_of_means) > 1e-3) aggregates_differ = true;
  }
  // The scenario must actually discriminate the two aggregation rules.
  EXPECT_TRUE(aggregates_differ);
}

TEST(Chip, ScalarAndBatchedKernelsAgreeBitExact) {
  // The legacy per-object scalar kernel is kept solely as a differential
  // oracle for the batched SoA kernel: every tick field must agree
  // bit-for-bit, DVFS transitions and congestion coupling included.
  CmpConfig cfg = CmpConfig::default_8core();
  cfg.memory_bandwidth_capacity = 24.0;  // keep congestion in play
  Chip batched(cfg, workload::mix1(), 21, TickKernel::kBatched);
  Chip scalar(cfg, workload::mix1(), 21, TickKernel::kScalarReference);
  for (int i = 0; i < 300; ++i) {
    if (i == 100) {  // mid-run DVFS transition on one island
      batched.island(1).actuator().set_level(1);
      scalar.island(1).actuator().set_level(1);
    }
    const ChipTick tb = batched.step(1e-4);
    const ChipTick ts = scalar.step(1e-4);
    ASSERT_EQ(tb.total_bips, ts.total_bips);
    ASSERT_EQ(tb.total_instructions, ts.total_instructions);
    ASSERT_EQ(tb.utilization, ts.utilization);
    ASSERT_EQ(tb.congestion, ts.congestion);
    ASSERT_EQ(tb.islands.size(), ts.islands.size());
    for (std::size_t k = 0; k < tb.islands.size(); ++k) {
      ASSERT_EQ(tb.islands[k].bips, ts.islands[k].bips);
      ASSERT_EQ(tb.islands[k].bandwidth_demand, ts.islands[k].bandwidth_demand);
      ASSERT_EQ(tb.islands[k].utilization, ts.islands[k].utilization);
      for (std::size_t c = 0; c < tb.islands[k].cores.size(); ++c) {
        ASSERT_EQ(tb.islands[k].cores[c].instructions,
                  ts.islands[k].cores[c].instructions);
        ASSERT_EQ(tb.islands[k].cores[c].utilization,
                  ts.islands[k].cores[c].utilization);
      }
    }
  }
}

TEST(Chip, KernelsAgreeBitExactAcrossMigrations) {
  // A migration swaps two threads' workload state: CoreModels on the
  // scalar path, demand-bank rows on the batched one. Along the way every
  // kind of operating-point change the batched kernel's broadcast must pick
  // up: PIC frequency requests, MaxBIPS-style set_level (some to the level
  // already set, which changes nothing), their transition stalls, and
  // migration stalls both shorter and longer than a tick.
  const CmpConfig cfg = CmpConfig::default_8core();
  Chip batched(cfg, workload::mix1(), 5, TickKernel::kBatched);
  Chip scalar(cfg, workload::mix1(), 5, TickKernel::kScalarReference);
  util::Xoshiro256pp rng(99);
  const auto both = [&](auto&& change) {
    change(batched);
    change(scalar);
  };
  for (int i = 0; i < 900; ++i) {
    if (i % 150 == 40) {
      const std::size_t a = static_cast<std::size_t>(i / 150) % 4;
      const std::size_t b = (a + 1) % 4;
      const double stall = i % 300 == 40 ? 2e-5 : 2.5e-4;
      both([&](Chip& c) { c.migrate(a, 0, b, 1, stall); });
    }
    if (i % 5 == 0) {  // a PIC boundary on one island
      const std::size_t isl = static_cast<std::size_t>(i / 5) % 4;
      const units::GigaHertz f{rng.uniform(0.5, 2.1)};
      both([&](Chip& c) { c.island(isl).actuator().request_frequency(f); });
    }
    if (i % 50 == 25) {  // a GPM boundary setting every island's level
      for (std::size_t isl = 0; isl < 4; ++isl) {
        const std::size_t level =
            i % 100 == 25 ? batched.island(isl).actuator().current_level()
                          : rng.uniform_int(cfg.dvfs.num_levels());
        both([&](Chip& c) { c.island(isl).actuator().set_level(level); });
      }
    }
    const ChipTick& tb = batched.step(1e-4);
    const ChipTick& ts = scalar.step(1e-4);
    ASSERT_EQ(tb.total_bips, ts.total_bips) << "tick " << i;
    ASSERT_EQ(tb.total_instructions, ts.total_instructions) << "tick " << i;
    ASSERT_EQ(tb.utilization, ts.utilization) << "tick " << i;
    const ChipSoa& sb = batched.soa();
    const ChipSoa& ss = scalar.soa();
    for (std::size_t g = 0; g < batched.num_cores(); ++g) {
      ASSERT_EQ(sb.demand_activity[g], ss.demand_activity[g])
          << "tick " << i << " core " << g;
      ASSERT_EQ(sb.freq_ghz[g], ss.freq_ghz[g]) << "tick " << i << " core " << g;
      ASSERT_EQ(sb.inv_freq[g], ss.inv_freq[g]) << "tick " << i << " core " << g;
      ASSERT_EQ(sb.voltage[g], ss.voltage[g]) << "tick " << i << " core " << g;
      ASSERT_EQ(sb.run_fraction[g], ss.run_fraction[g])
          << "tick " << i << " core " << g;
      ASSERT_EQ(sb.stall_fraction[g], ss.stall_fraction[g])
          << "tick " << i << " core " << g;
      ASSERT_EQ(sb.bips[g], ss.bips[g]) << "tick " << i << " core " << g;
    }
  }
  // The schedule must have exercised what it claims to.
  std::size_t transitions = 0;
  for (std::size_t isl = 0; isl < 4; ++isl) {
    transitions += batched.island(isl).actuator().transition_count();
  }
  EXPECT_GT(transitions, 50u);
}

TEST(CmpConfig, DerivedQuantities) {
  const CmpConfig cfg = CmpConfig::default_8core();
  EXPECT_EQ(cfg.total_cores(), 8u);
  EXPECT_DOUBLE_EQ(cfg.tick_seconds(), 1e-4);
  EXPECT_EQ(cfg.pic_invocations_per_gpm(), 10u);  // 5 ms / 0.5 ms
}

}  // namespace
}  // namespace cpm::sim
