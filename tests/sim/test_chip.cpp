#include "sim/chip.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "support/reference_chip.h"
#include "workload/mixes.h"
#include "workload/profile.h"

namespace cpm::sim {
namespace {

TEST(Chip, BuildsFromDefaultConfigAndMix1) {
  Chip chip(CmpConfig::default_8core(), workload::mix1(), 42);
  EXPECT_EQ(chip.num_islands(), 4u);
  EXPECT_EQ(chip.island_size(0), 2u);
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
  relieved.actuator(0).set_level(0);  // slow island 0 only
  relieved.actuator(0).consume_stall(1.0);

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
  EXPECT_EQ(c16.island_size(0), 4u);
  Chip c32(CmpConfig::scale_32core(), workload::mix3(2), 1);
  EXPECT_EQ(c32.num_islands(), 8u);
  Chip t8(CmpConfig::thermal_8x1(), workload::thermal_mix(), 1);
  EXPECT_EQ(t8.num_islands(), 8u);
  EXPECT_EQ(t8.island_size(0), 1u);
}

TEST(Chip, DvfsTransitionStallsWholeIsland) {
  Chip chip(CmpConfig::default_8core(), workload::mix1(), 9);
  // Make a transition, then step one tick: cores should see the stall
  // (the transition stall is 0.5 % of 0.5 ms = 2.5 us; tick 1 us is inside).
  chip.actuator(0).set_level(0);
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
  ASSERT_EQ(chip.island_size(0), 1u);
  ASSERT_EQ(chip.island_size(1), 3u);

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

TEST(Chip, IsNeitherCopyableNorMovable) {
  // Every island's actuator points at the chip's own DVFS table: a copied
  // or moved chip would read the source's table after it is destroyed.
  EXPECT_FALSE(std::is_copy_constructible_v<Chip>);
  EXPECT_FALSE(std::is_copy_assignable_v<Chip>);
  EXPECT_FALSE(std::is_move_constructible_v<Chip>);
  EXPECT_FALSE(std::is_move_assignable_v<Chip>);
}

TEST(Chip, ScalarAndBatchedKernelsAgreeBitExact) {
  // The object-walking scalar loop lives on as the test tree's reference
  // chip: every tick field, SoA column and actuator state must agree
  // bit-for-bit, DVFS transitions and congestion coupling included.
  CmpConfig cfg = CmpConfig::default_8core();
  cfg.memory_bandwidth_capacity = 24.0;  // keep congestion in play
  for (const bool record_cores : {true, false}) {
    reference::ChipLockstep lock(cfg, workload::mix1(), 21, record_cores);
    for (int i = 0; i < 300; ++i) {
      if (i == 100) {  // mid-run DVFS transition on one island
        lock.on_actuator(1, [](DvfsActuator& a) { a.set_level(1); });
      }
      ASSERT_EQ(lock.step(1e-4), "") << "tick " << i;
    }
    EXPECT_GT(lock.chip().step(1e-4).congestion, 0.0);
  }
}

TEST(Chip, KernelsAgreeBitExactAcrossMigrations) {
  // A migration swaps two threads' workload state: CoreModels in the
  // reference, demand-bank rows in the chip. Along the way every kind of
  // operating-point change the chip's broadcast must pick up: PIC frequency
  // requests, MaxBIPS and calibration set_level (some to the level already
  // set, which changes nothing), their transition stalls, and migration
  // stalls both shorter and longer than a tick.
  const CmpConfig cfg = CmpConfig::default_8core();
  for (std::uint64_t stream = 1; stream <= 4; ++stream) {
    const reference::LockstepReport report =
        reference::run_random_lockstep(cfg, workload::mix1(), 5, stream, 900);
    ASSERT_EQ(report.divergence, "") << "stream " << stream;
    EXPECT_EQ(report.ticks, 900u);
    // The schedule must have exercised what it claims to.
    EXPECT_GT(report.transitions, 50u);
    EXPECT_GT(report.migrations, 2u);
    EXPECT_GT(report.stalled_ticks, 50u);
  }
}

TEST(Chip, BatchChipsAgreeWithTheirOwnReferencesAcrossMigrations) {
  // A batch of chips with different mixes and seeds, congestion in play,
  // each held bit for bit to a reference chip of its own while every
  // chip's islands change level and migrate threads independently.
  CmpConfig cfg = CmpConfig::default_8core();
  cfg.memory_bandwidth_capacity = 24.0;
  const workload::Mix mixes[] = {workload::mix1(), workload::mix2(),
                                 workload::mix1()};
  const ChipSpec specs[] = {{&mixes[0], 5}, {&mixes[1], 6}, {&mixes[2], 7}};
  for (std::uint64_t stream = 1; stream <= 2; ++stream) {
    const reference::LockstepReport report =
        reference::run_random_lockstep(cfg, specs, stream, 600);
    ASSERT_EQ(report.divergence, "") << "stream " << stream;
    EXPECT_EQ(report.ticks, 600u);
    EXPECT_GT(report.migrations, 4u);
    EXPECT_GT(report.stalled_ticks, 50u);
  }
}

TEST(Chip, BatchNumbersIslandsAndCoresFlat) {
  const CmpConfig cfg = CmpConfig::default_8core();
  const workload::Mix mix1 = workload::mix1();
  const workload::Mix mix2 = workload::mix2();
  const ChipSpec specs[] = {{&mix1, 1}, {&mix2, 2}};
  Chip batch(cfg, specs);
  EXPECT_EQ(batch.num_chips(), 2u);
  EXPECT_EQ(batch.num_islands(), 8u);
  EXPECT_EQ(batch.num_cores(), 16u);
  EXPECT_EQ(batch.island_offset(4), 8u);
  EXPECT_EQ(&batch.core_profile(8), mix2.islands[0][0]);
  // Chip 1 runs exactly as a chip of its own.
  Chip alone(cfg, mix2, 2);
  for (int t = 0; t < 50; ++t) {
    batch.step(1e-4);
    const ChipTick& a = alone.step(1e-4);
    ASSERT_EQ(batch.tick(1).total_bips, a.total_bips) << "tick " << t;
    ASSERT_EQ(batch.tick(1).congestion, a.congestion) << "tick " << t;
  }
  // A migration stays within one chip.
  EXPECT_THROW(batch.migrate(3, 0, 4, 0), std::invalid_argument);
  EXPECT_NO_THROW(batch.migrate(4, 0, 7, 1));
  EXPECT_THROW(Chip(cfg, std::span<const ChipSpec>{}), std::invalid_argument);
}

TEST(CmpConfig, DerivedQuantities) {
  const CmpConfig cfg = CmpConfig::default_8core();
  EXPECT_EQ(cfg.total_cores(), 8u);
  EXPECT_DOUBLE_EQ(cfg.tick_seconds(), 1e-4);
  EXPECT_EQ(cfg.pic_invocations_per_gpm(), 10u);  // 5 ms / 0.5 ms
}

}  // namespace
}  // namespace cpm::sim
