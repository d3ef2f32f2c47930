#include "core/invariant_checker.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.h"
#include "core/record_sink.h"

namespace cpm::core {
namespace {

InvariantCheckerConfig two_island_config() {
  InvariantCheckerConfig cc;
  cc.num_islands = 2;
  cc.dvfs = sim::DvfsTable::pentium_m();
  cc.check_freq_step = true;
  cc.max_step_ghz = 0.4;
  return cc;
}

PicIntervalRecord valid_pic(std::size_t island) {
  const auto& table = sim::DvfsTable::pentium_m();
  PicIntervalRecord r;
  r.time_s = 0.0005;
  r.island = island;
  r.target_w = 10.0;
  r.sensed_w = 9.0;
  r.actual_w = 9.5;
  r.utilization = 0.5;
  r.bips = 1.0;
  r.dvfs_level = table.max_level();
  r.freq_ghz = table.max_freq().value();
  return r;
}

GpmIntervalRecord valid_gpm() {
  GpmIntervalRecord r;
  r.time_s = 0.005;
  r.chip_budget_w = 10.0;
  r.island_alloc_w = {5.0, 4.0};
  r.island_actual_w = {4.0, 4.0};
  r.chip_actual_w = 8.0;
  r.chip_bips = 2.0;
  return r;
}

TEST(InvariantChecker, AcceptsValidRecords) {
  InvariantChecker checker(two_island_config());
  checker.check_pic(valid_pic(0));
  checker.check_pic(valid_pic(1));
  checker.check_gpm(valid_gpm());
  EXPECT_TRUE(checker.ok());
  EXPECT_EQ(checker.pic_records_checked(), 2u);
  EXPECT_EQ(checker.gpm_records_checked(), 1u);
}

TEST(InvariantChecker, FlagsBudgetOversubscription) {
  InvariantChecker checker(two_island_config());
  GpmIntervalRecord r = valid_gpm();
  r.island_alloc_w = {6.0, 5.0};  // 11 W > 10 W budget
  checker.check_gpm(r);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].invariant, "gpm.budget_sum");
}

TEST(InvariantChecker, FlagsNegativeAllocation) {
  InvariantChecker checker(two_island_config());
  GpmIntervalRecord r = valid_gpm();
  r.island_alloc_w = {-1.0, 5.0};
  checker.check_gpm(r);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].invariant, "gpm.alloc_nonneg");
  EXPECT_EQ(checker.violations()[0].island, 0u);
}

TEST(InvariantChecker, FlagsInconsistentChipActual) {
  InvariantChecker checker(two_island_config());
  GpmIntervalRecord r = valid_gpm();
  r.chip_actual_w = 9.0;  // island_actual sums to 8
  checker.check_gpm(r);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].invariant, "gpm.actual_sum");
}

TEST(InvariantChecker, FlagsNegativeSensedPower) {
  InvariantChecker checker(two_island_config());
  PicIntervalRecord r = valid_pic(0);
  r.sensed_w = -0.25;
  checker.check_pic(r);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].invariant, "pic.sensed_nonneg");
}

TEST(InvariantChecker, FlagsOutOfRangeFrequency) {
  InvariantChecker checker(two_island_config());
  PicIntervalRecord r = valid_pic(0);
  r.freq_ghz = 2.6;  // Pentium-M table tops out at 2.0
  checker.check_pic(r);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].invariant, "pic.freq_bounds");
}

TEST(InvariantChecker, FlagsOffGridFrequency) {
  InvariantChecker checker(two_island_config());
  PicIntervalRecord r = valid_pic(0);
  r.freq_ghz = 1.7;  // in range, but not a table level
  checker.check_pic(r);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].invariant, "pic.freq_quantized");
}

TEST(InvariantChecker, FlagsOversizedFrequencyStep) {
  const auto& table = sim::DvfsTable::pentium_m();
  InvariantChecker checker(two_island_config());
  checker.check_pic(valid_pic(0));  // at 2.0 GHz
  PicIntervalRecord r = valid_pic(0);
  r.freq_ghz = table.min_freq().value();  // 0.6 GHz: a 1.4 GHz jump
  r.dvfs_level = table.min_level();
  checker.check_pic(r);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].invariant, "pic.freq_step");
  // Per-island state: the same jump on the *other* island's first record is
  // not a step (no previous sample).
  PicIntervalRecord other = r;
  other.island = 1;
  checker.check_pic(other);
  EXPECT_EQ(checker.violations().size(), 1u);
}

TEST(InvariantChecker, FlagsThermalStreakCompletion) {
  InvariantCheckerConfig cc = two_island_config();
  ThermalConstraints tc;
  tc.single_cap_share = 0.2;
  tc.single_consecutive_limit = 2;
  cc.thermal = tc;
  InvariantChecker checker(std::move(cc));
  GpmIntervalRecord r = valid_gpm();
  r.island_alloc_w = {3.0, 1.0};  // island 0 at 30 % of budget
  checker.check_gpm(r);
  EXPECT_TRUE(checker.ok());  // streak 1 < limit 2
  checker.check_gpm(r);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].invariant, "thermal.streak");
}

TEST(InvariantChecker, FatalModeThrowsOnFirstViolation) {
  InvariantCheckerConfig cc = two_island_config();
  cc.fatal = true;
  InvariantChecker checker(std::move(cc));
  PicIntervalRecord r = valid_pic(0);
  r.sensed_w = -1.0;
  EXPECT_THROW(checker.check_pic(r), InvariantViolationError);
}

TEST(InvariantChecker, AggregateCrossCheckCatchesCountMismatch) {
  InvariantChecker checker(two_island_config());
  checker.check_gpm(valid_gpm());
  InMemorySink sink;  // saw nothing, while the checker saw one GPM record
  checker.check_aggregates(sink);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].invariant, "sink.record_counts");
}

TEST(CheckingSink, ForwardsRecordsAndChecksAggregates) {
  InvariantChecker checker(two_island_config());
  CheckingSink sink(checker, std::make_unique<InMemorySink>());
  sink.record_pic(valid_pic(0));
  sink.record_gpm(valid_gpm());
  sink.record_gpm(valid_gpm());
  SimulationResult result;
  sink.finish(result);  // runs the aggregate cross-check before delegating
  EXPECT_TRUE(checker.ok()) << checker.summary();
  EXPECT_EQ(result.pic_records.size(), 1u);  // forwarded to the inner sink
  EXPECT_EQ(result.gpm_records.size(), 2u);
  EXPECT_EQ(result.pic_records_seen, 1u);
  EXPECT_EQ(result.gpm_records_seen, 2u);
}

TEST(CheckingSink, CleanSimulationRunHasNoViolations) {
  SimulationConfig config = default_config(0.8, 11);
  Simulation sim(config);
  InvariantChecker checker(checker_config_for(sim));
  InMemorySink mem;
  CheckingSink sink(checker, mem);
  const SimulationResult result = sim.run(0.02, sink);
  EXPECT_TRUE(checker.ok()) << checker.summary();
  EXPECT_EQ(checker.pic_records_checked(), result.pic_records_seen);
  EXPECT_EQ(checker.gpm_records_checked(), result.gpm_records_seen);
  EXPECT_GT(result.pic_records.size(), 0u);  // forwarding preserved the trace
}

TEST(CheckerConfigFor, MirrorsSimulationWiring) {
  SimulationConfig config = default_config(0.8, 11);
  config.policy = PolicyKind::kThermal;
  Simulation thermal_sim(config);
  const InvariantCheckerConfig thermal_cc = checker_config_for(thermal_sim);
  EXPECT_EQ(thermal_cc.num_islands, config.cmp.num_islands);
  EXPECT_TRUE(thermal_cc.check_freq_step);
  ASSERT_TRUE(thermal_cc.thermal.has_value());
  EXPECT_FALSE(thermal_cc.thermal->adjacent_pairs.empty());  // floorplan pairs

  config.policy = PolicyKind::kPerformance;
  config.manager = ManagerKind::kMaxBips;
  Simulation maxbips_sim(config);
  const InvariantCheckerConfig maxbips_cc = checker_config_for(maxbips_sim);
  EXPECT_FALSE(maxbips_cc.check_freq_step);  // levels are set directly
  EXPECT_FALSE(maxbips_cc.thermal.has_value());
  ASSERT_TRUE(maxbips_cc.dvfs.has_value());
  EXPECT_EQ(maxbips_cc.dvfs->num_levels(), config.cmp.dvfs.num_levels());
}

}  // namespace
}  // namespace cpm::core
