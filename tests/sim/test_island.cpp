// A voltage/frequency island of sim::Chip: a group of cores sharing one DVFS
// actuator (Fig. 1 of the paper), whose per-core results the chip
// aggregates into the quantities the PIC and GPM consume.
#include <gtest/gtest.h>

#include "sim/chip.h"
#include "workload/profile.h"

namespace cpm::sim {
namespace {

/// Two islands of two cores: a CPU-bound and a memory-bound thread each.
/// Memory contention is off unless `memory_capacity` says otherwise.
CmpConfig two_island_config(double memory_capacity = 1e12) {
  CmpConfig cfg = CmpConfig::default_8core();
  cfg.num_islands = 2;
  cfg.cores_per_island = 2;
  cfg.memory_bandwidth_capacity = memory_capacity;
  return cfg;
}

workload::Mix two_island_mix() {
  workload::Mix mix;
  mix.name = "islands";
  for (int i = 0; i < 2; ++i) {
    mix.islands.push_back({&workload::find_profile("bschls"),
                           &workload::find_profile("sclust")});
  }
  return mix;
}

Chip make_chip(double memory_capacity = 1e12, std::uint64_t seed = 100) {
  return Chip(two_island_config(memory_capacity), two_island_mix(), seed);
}

TEST(Island, RejectsEmptyCoreList) {
  workload::Mix mix = two_island_mix();
  mix.islands[1].clear();
  mix.islands[0].push_back(&workload::find_profile("bschls"));
  mix.islands[0].push_back(&workload::find_profile("bschls"));
  EXPECT_THROW(Chip(two_island_config(), mix, 1), std::invalid_argument);
}

TEST(Island, AggregatesCores) {
  Chip chip = make_chip();
  const ChipTick& tick = chip.step(1e-4);
  for (const IslandTick& island : tick.islands) {
    ASSERT_EQ(island.cores.size(), 2u);
    double bips = 0.0, util = 0.0;
    for (const auto& c : island.cores) {
      bips += c.bips;
      util += c.utilization;
    }
    EXPECT_NEAR(island.bips, bips, 1e-12);
    EXPECT_NEAR(island.utilization, util / 2.0, 1e-12);
  }
}

TEST(Island, SharedOperatingPoint) {
  Chip chip = make_chip();
  chip.actuator(0).set_level(3);
  EXPECT_DOUBLE_EQ(chip.actuator(0).operating_point().freq_ghz, 1.2);
  chip.step(1e-4);
  chip.actuator(0).set_level(0);
  chip.step(1e-4);
  // Every core of island 0 runs at the island's point; island 1 stays at
  // the top level.
  for (std::size_t g = 0; g < 2; ++g) {
    EXPECT_DOUBLE_EQ(chip.soa().freq_ghz[g], 0.6);
  }
  for (std::size_t g = 2; g < 4; ++g) {
    EXPECT_DOUBLE_EQ(chip.soa().freq_ghz[g],
                     chip.actuator(1).operating_point().freq_ghz);
  }
}

TEST(Island, TransitionStallHitsAllCoresEqually) {
  Chip chip = make_chip();
  chip.actuator(0).set_level(0);  // owes 2.5 us of stall
  const ChipTick& tick = chip.step(1e-6);  // 1 us tick
  for (const auto& c : tick.islands[0].cores) {
    EXPECT_DOUBLE_EQ(c.stall_fraction, 1.0);
  }
  // Stall drains: after 2 more 1 us ticks, cores run again.
  chip.step(1e-6);
  const ChipTick& after = chip.step(1e-6);
  for (const auto& c : after.islands[0].cores) {
    EXPECT_LT(c.stall_fraction, 1.0);
  }
}

TEST(Island, LowerFrequencyLowersThroughput) {
  Chip fast = make_chip();
  Chip slow = make_chip();
  slow.actuator(0).set_level(0);
  double fast_bips = 0.0, slow_bips = 0.0;
  for (int i = 0; i < 500; ++i) {
    fast_bips += fast.step(1e-4).islands[0].bips;
    slow_bips += slow.step(1e-4).islands[0].bips;
  }
  EXPECT_GT(fast_bips, slow_bips);
}

TEST(Island, CongestionPassedToCores) {
  Chip free = make_chip();
  Chip jammed = make_chip(/*memory_capacity=*/0.5);
  double free_bips = 0.0, jammed_bips = 0.0;
  for (int i = 0; i < 500; ++i) {
    free_bips += free.step(1e-4).islands[0].bips;
    const ChipTick& tick = jammed.step(1e-4);
    jammed_bips += tick.islands[0].bips;
    if (i > 0) {
      EXPECT_GT(tick.congestion, 1.0);
    }
  }
  EXPECT_GT(free_bips, jammed_bips);
}

}  // namespace
}  // namespace cpm::sim
