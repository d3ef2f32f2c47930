#include <gtest/gtest.h>

#include "core/experiment.h"
#include "sim/core.h"
#include "workload/profile.h"

namespace cpm::workload {
namespace {

TEST(ExtraProfiles, FiveRemainingParsecBenchmarks) {
  const auto extras = extra_parsec_profiles();
  ASSERT_EQ(extras.size(), 5u);
  for (const char* name :
       {"swaptions", "raytrace", "fluidanimate", "ferret", "dedup"}) {
    EXPECT_NO_THROW(find_profile(name)) << name;
    EXPECT_NO_THROW(instruction_mix(name)) << name;
  }
}

TEST(ExtraProfiles, NotPartOfThePaperSet) {
  // The paper's Table II selection stays exactly eight.
  EXPECT_EQ(parsec_profiles().size(), 8u);
  for (const auto& p : parsec_profiles()) {
    EXPECT_NE(p.name, "swaptions");
    EXPECT_NE(p.name, "dedup");
  }
}

TEST(ExtraProfiles, ClassesAreConsistent) {
  EXPECT_TRUE(find_profile("swaptions").cpu_bound());
  EXPECT_TRUE(find_profile("raytrace").cpu_bound());
  EXPECT_FALSE(find_profile("fluidanimate").cpu_bound());
  EXPECT_FALSE(find_profile("ferret").cpu_bound());
  EXPECT_FALSE(find_profile("dedup").cpu_bound());
}

TEST(ExtraProfiles, FrequencyScalingMatchesClass) {
  auto mean_bips = [](const BenchmarkProfile& p, double f) {
    sim::CoreModel core(p, 42, 0.5);
    double sum = 0.0;
    for (int i = 0; i < 2000; ++i) {
      sum += core.step(1e-4, {1.1, f}, 0.0, 0.0).bips;
    }
    return sum / 2000.0;
  };
  const double swapt =
      mean_bips(find_profile("swaptions"), 2.0) /
      mean_bips(find_profile("swaptions"), 0.6);
  const double dedup = mean_bips(find_profile("dedup"), 2.0) /
                       mean_bips(find_profile("dedup"), 0.6);
  EXPECT_GT(swapt, 2.2);
  EXPECT_LT(dedup, 1.7);
}

TEST(ExtraProfiles, RunThroughFullSimulation) {
  // A custom mix built entirely from the extended set.
  core::SimulationConfig cfg = core::default_config(0.8, 3);
  cfg.mix.name = "extras";
  cfg.mix.islands = {
      {&find_profile("swaptions"), &find_profile("fluidanimate")},
      {&find_profile("raytrace"), &find_profile("ferret")},
      {&find_profile("swaptions"), &find_profile("dedup")},
      {&find_profile("raytrace"), &find_profile("fluidanimate")},
  };
  core::Simulation sim(cfg);
  const core::SimulationResult res = sim.run(0.05);
  EXPECT_GT(res.total_instructions, 0.0);
  const core::ChipTrackingMetrics chip =
      core::chip_tracking_metrics(res.gpm_records);
  EXPECT_LT(chip.max_overshoot, 0.15);
  EXPECT_NEAR(res.avg_chip_power_w / res.budget_w, 1.0, 0.08);
}

}  // namespace
}  // namespace cpm::workload
