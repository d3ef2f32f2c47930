#include "core/migration.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.h"
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
  // The batched tick keeps each thread's workload state in the chip's
  // demand bank, so a migration must move the bank rows along with the
  // threads. fuzz_sim holds the two kernels together but never migrates.
  SimulationConfig batched = default_config(0.8, 21);
  batched.enable_migration = true;
  SimulationConfig scalar = batched;
  scalar.tick_kernel = sim::TickKernel::kScalarReference;
  Simulation batched_sim(batched);
  Simulation scalar_sim(scalar);
  const SimulationResult a = batched_sim.run(0.25);
  const SimulationResult b = scalar_sim.run(0.25);
  ASSERT_GE(a.migrations, 2u);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.total_instructions, b.total_instructions);
  EXPECT_EQ(a.island_instructions, b.island_instructions);
  EXPECT_EQ(a.island_energy_j, b.island_energy_j);
  ASSERT_EQ(a.gpm_records.size(), b.gpm_records.size());
  for (std::size_t i = 0; i < a.gpm_records.size(); ++i) {
    EXPECT_EQ(a.gpm_records[i].island_actual_w,
              b.gpm_records[i].island_actual_w)
        << "window " << i;
    EXPECT_EQ(a.gpm_records[i].island_bips, b.gpm_records[i].island_bips)
        << "window " << i;
  }
}

TEST(Migration, DisabledByDefault) {
  Simulation sim(default_config(0.8, 21));
  EXPECT_EQ(sim.run(0.05).migrations, 0u);
}

TEST(Migration, ChipSwapMovesWorkloads) {
  sim::Chip chip(sim::CmpConfig::default_8core(), workload::mix1(), 3);
  const auto* before_a = &chip.island(0).core(0).profile();
  const auto* before_b = &chip.island(1).core(1).profile();
  chip.migrate(0, 0, 1, 1, /*stall=*/1e-4);
  EXPECT_EQ(&chip.island(0).core(0).profile(), before_b);
  EXPECT_EQ(&chip.island(1).core(1).profile(), before_a);
  // Both islands owe the migration stall.
  EXPECT_GT(chip.island(0).actuator().pending_stall(), 0.0);
  EXPECT_GT(chip.island(1).actuator().pending_stall(), 0.0);
  EXPECT_THROW(chip.migrate(0, 0, 9, 0), std::invalid_argument);
}

}  // namespace
}  // namespace cpm::core
