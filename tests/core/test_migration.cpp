#include "core/migration.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/experiment.h"
#include "support/reference_chip.h"
#include "workload/mixes.h"

namespace cpm::core {
namespace {

TEST(MigrationAdvisor, GroupingCostZeroForHomogeneousIslands) {
  const std::vector<double> util{0.9, 0.9, 0.3, 0.3};
  EXPECT_DOUBLE_EQ(MigrationAdvisor::grouping_cost(util, 2, 2), 0.0);
}

TEST(MigrationAdvisor, GroupingCostPositiveForMixedIslands) {
  const std::vector<double> util{0.9, 0.3, 0.9, 0.3};
  EXPECT_GT(MigrationAdvisor::grouping_cost(util, 2, 2), 0.1);
}

TEST(MigrationAdvisor, GroupingCostRejectsSizeMismatch) {
  const std::vector<double> util{0.9, 0.3};
  EXPECT_THROW(MigrationAdvisor::grouping_cost(util, 2, 2),
               std::invalid_argument);
}

TEST(MigrationAdvisor, ProposesTheObviousSwap) {
  // Islands {0.9, 0.3} and {0.9, 0.3}: swapping core 1 of island 0 with
  // core 0 of island 1 homogenizes both.
  MigrationAdvisor advisor;
  const std::vector<double> util{0.9, 0.3, 0.9, 0.3};
  const auto proposal = advisor.propose(util, 2, 2);
  ASSERT_TRUE(proposal.has_value());
  // Apply it and verify the cost drops to ~0.
  std::vector<double> after = util;
  std::swap(after[proposal->island_a * 2 + proposal->core_a],
            after[proposal->island_b * 2 + proposal->core_b]);
  EXPECT_NEAR(MigrationAdvisor::grouping_cost(after, 2, 2), 0.0, 1e-12);
  EXPECT_GT(proposal->improvement, 0.3);
}

TEST(MigrationAdvisor, NoProposalWhenAlreadyHomogeneous) {
  MigrationAdvisor advisor;
  const std::vector<double> util{0.9, 0.9, 0.3, 0.3};
  EXPECT_FALSE(advisor.propose(util, 2, 2).has_value());
}

TEST(MigrationAdvisor, HysteresisBlocksTinyGains) {
  MigrationConfig cfg;
  cfg.min_improvement = 0.5;  // very conservative
  MigrationAdvisor advisor(cfg);
  const std::vector<double> util{0.60, 0.55, 0.50, 0.45};
  EXPECT_FALSE(advisor.propose(util, 2, 2).has_value());
}

TEST(MigrationAdvisor, SingleCoreIslandsCannotMigrate) {
  MigrationAdvisor advisor;
  const std::vector<double> util{0.9, 0.3};
  EXPECT_FALSE(advisor.propose(util, 2, 1).has_value());
}

TEST(Migration, EndToEndConvergesTowardHomogeneousGrouping) {
  // Start from Mix-1 (every island pairs a CPU-bound with a memory-bound
  // thread). With migration enabled, the advisor should execute swaps and
  // stop once the grouping is homogeneous (Mix-2-like).
  SimulationConfig cfg = default_config(0.8, 21);
  cfg.enable_migration = true;
  Simulation sim(cfg);
  const SimulationResult res = sim.run(0.25);
  // Mix-1 needs exactly 2 swaps to become fully homogeneous; allow a couple
  // of extra exploratory swaps but require convergence (not one per window).
  EXPECT_GE(res.migrations, 2u);
  EXPECT_LE(res.migrations, 10u);
  EXPECT_LT(static_cast<double>(res.migrations),
            static_cast<double>(res.gpm_records.size()) * 0.5);
}

TEST(Migration, BatchedKernelMatchesScalarReference) {
  // The chip keeps each thread's workload state in its demand bank, so a
  // migration must move the bank rows along with the threads. Here the
  // advisor drives the swaps at SimulationRun's cadence and stall, and the
  // chip must stay bit-identical to the reference chip, whose CoreModels
  // carry their own workload state.
  const SimulationConfig cfg = default_config(0.8, 21);
  reference::ChipLockstep lock(cfg.cmp, cfg.mix, cfg.seed, false);
  const sim::Chip& chip = lock.chip();
  const MigrationAdvisor advisor(cfg.migration);
  const std::size_t window =
      cfg.cmp.ticks_per_pic_interval * cfg.cmp.pic_invocations_per_gpm();
  std::vector<double> util(chip.num_cores(), 0.0);
  std::size_t migrations = 0;
  for (std::size_t t = 1; t <= 50 * window; ++t) {
    ASSERT_EQ(lock.step(cfg.cmp.tick_seconds()), "") << "tick " << t;
    for (std::size_t g = 0; g < util.size(); ++g) {
      util[g] += chip.soa().utilization[g];
    }
    if (t % window != 0) continue;
    for (double& u : util) u /= static_cast<double>(window);
    const auto proposal =
        advisor.propose(util, chip.num_islands(), cfg.cmp.cores_per_island);
    if (proposal) {
      lock.migrate(proposal->island_a, proposal->core_a, proposal->island_b,
                   proposal->core_b, cfg.migration.migration_stall_s);
      ++migrations;
    }
    std::fill(util.begin(), util.end(), 0.0);
  }
  EXPECT_GE(migrations, 2u);
}

TEST(Migration, DisabledByDefault) {
  Simulation sim(default_config(0.8, 21));
  EXPECT_EQ(sim.run(0.05).migrations, 0u);
}

TEST(Migration, ChipSwapMovesWorkloads) {
  sim::Chip chip(sim::CmpConfig::default_8core(), workload::mix1(), 3);
  const std::size_t ga = chip.island_offset(0);
  const std::size_t gb = chip.island_offset(1) + 1;
  const auto* before_a = &chip.core_profile(ga);
  const auto* before_b = &chip.core_profile(gb);
  chip.migrate(0, 0, 1, 1, /*stall=*/1e-4);
  EXPECT_EQ(&chip.core_profile(ga), before_b);
  EXPECT_EQ(&chip.core_profile(gb), before_a);
  // Both islands owe the migration stall.
  EXPECT_GT(chip.actuator(0).pending_stall(), 0.0);
  EXPECT_GT(chip.actuator(1).pending_stall(), 0.0);
  EXPECT_THROW(chip.migrate(0, 0, 9, 0), std::invalid_argument);
}

TEST(Migration, OutOfRangeCoreThrowsAndLeavesChipUnchanged) {
  // mix1 has two cores per island: core index 2 is one past the end. The
  // failed call must not swap, stall or touch any state: the chip keeps
  // agreeing bit for bit with a reference chip that never saw it.
  const sim::CmpConfig cfg = sim::CmpConfig::default_8core();
  reference::ChipLockstep lock(cfg, workload::mix1(), 3, true);
  sim::Chip& chip = lock.chip();
  for (int i = 0; i < 20; ++i) ASSERT_EQ(lock.step(1e-4), "");
  const auto* profile_0 = &chip.core_profile(0);
  const auto* profile_3 = &chip.core_profile(3);
  EXPECT_THROW(chip.migrate(0, 2, 1, 1, 1e-3), std::invalid_argument);
  EXPECT_THROW(chip.migrate(0, 0, 1, 2, 1e-3), std::invalid_argument);
  EXPECT_THROW(chip.migrate(3, 0, 0, 99, 1e-3), std::invalid_argument);
  EXPECT_EQ(&chip.core_profile(0), profile_0);
  EXPECT_EQ(&chip.core_profile(3), profile_3);
  for (std::size_t i = 0; i < chip.num_islands(); ++i) {
    EXPECT_EQ(chip.actuator(i).pending_stall(), 0.0) << "island " << i;
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(lock.step(1e-4), "") << "tick " << i;
  }
}

TEST(Migration, SameIslandThrowsAndLeavesChipUnchanged) {
  // A swap inside one island would charge that island the stall twice. Both
  // chips reject it before touching any state, so they keep agreeing bit for
  // bit after the failed calls.
  const sim::CmpConfig cfg = sim::CmpConfig::default_8core();
  reference::ChipLockstep lock(cfg, workload::mix1(), 3, true);
  sim::Chip& chip = lock.chip();
  for (int i = 0; i < 20; ++i) ASSERT_EQ(lock.step(1e-4), "");
  const auto* profile_0 = &chip.core_profile(0);
  const auto* profile_1 = &chip.core_profile(1);
  EXPECT_THROW(lock.migrate(0, 0, 0, 1, 1e-4), std::invalid_argument);
  EXPECT_THROW(chip.migrate(2, 1, 2, 1, 1e-4), std::invalid_argument);
  EXPECT_EQ(&chip.core_profile(0), profile_0);
  EXPECT_EQ(&chip.core_profile(1), profile_1);
  for (std::size_t i = 0; i < chip.num_islands(); ++i) {
    EXPECT_EQ(chip.actuator(i).pending_stall(), 0.0) << "island " << i;
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(lock.step(1e-4), "") << "tick " << i;
  }
  // The reference rejects the call on its own, too.
  reference::ReferenceChip ref(cfg, workload::mix1(), 3);
  EXPECT_THROW(ref.migrate(1, 0, 1, 1, 1e-4), std::invalid_argument);
  EXPECT_EQ(ref.actuator(1).pending_stall(), 0.0);
}

}  // namespace
}  // namespace cpm::core
