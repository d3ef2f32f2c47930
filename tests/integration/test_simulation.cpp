#include "core/simulation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/experiment.h"
#include "util/units.h"

namespace cpm::core {
namespace {

constexpr double kShortRun = 0.1;  // 20 GPM intervals

TEST(Simulation, RejectsBadConfig) {
  SimulationConfig cfg = default_config();
  cfg.budget_fraction = 0.0;
  EXPECT_THROW(Simulation{cfg}, std::invalid_argument);
  SimulationConfig cfg2 = default_config();
  cfg2.mix = workload::mix3(1);  // 16-core mix on an 8-core chip
  EXPECT_THROW(Simulation{cfg2}, std::invalid_argument);
}

// Each range check is written as a negated in-range test, so a NaN field
// fails it instead of slipping past `f <= lo || f > hi`.
TEST(Simulation, RejectsNanBudgetFraction) {
  SimulationConfig cfg = default_config();
  cfg.budget_fraction = std::nan("");
  EXPECT_THROW(Simulation{cfg}, std::invalid_argument);
}

TEST(Simulation, RejectsNanScheduledBudgetFraction) {
  SimulationConfig cfg = default_config();
  cfg.budget_schedule = {{0.05, std::nan("")}};
  EXPECT_THROW(Simulation{cfg}, std::invalid_argument);
}

// calibrate() casts calibration_seconds / dt to a tick count: a value that
// is not a finite, non-negative, representable count is rejected up front.
TEST(Simulation, RejectsNanCalibrationSeconds) {
  SimulationConfig cfg = default_config();
  cfg.calibration_seconds = std::nan("");
  EXPECT_THROW(Simulation{cfg}, std::invalid_argument);
}

TEST(Simulation, RejectsNegativeCalibrationSeconds) {
  SimulationConfig cfg = default_config();
  cfg.calibration_seconds = -1.0;
  EXPECT_THROW(Simulation{cfg}, std::invalid_argument);
}

TEST(Simulation, RejectsInfiniteCalibrationSeconds) {
  SimulationConfig cfg = default_config();
  cfg.calibration_seconds = HUGE_VAL;
  EXPECT_THROW(Simulation{cfg}, std::invalid_argument);
}

TEST(Simulation, RejectsCalibrationTickCountThatDoesNotFit) {
  SimulationConfig cfg = default_config();
  cfg.calibration_seconds = 1e300;  // 1e304 ticks of 0.1 ms
  EXPECT_THROW(Simulation{cfg}, std::invalid_argument);
}

TEST(Simulation, CalibrationProducesPlausibleModels) {
  Simulation sim(default_config());
  const CalibrationResult& cal = sim.calibration();
  ASSERT_EQ(cal.transducers.size(), 4u);
  ASSERT_EQ(cal.plant_gains.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    // Fig. 6: positive slope, strong linear fit.
    EXPECT_GT(cal.transducers[i].k1, 0.0) << "island " << i;
    EXPECT_GT(cal.transducers[i].r_squared, 0.8) << "island " << i;
    // Plant gain: raising frequency raises power.
    EXPECT_GT(cal.plant_gains[i], 0.0) << "island " << i;
  }
  EXPECT_GT(sim.max_chip_power().value(), 0.0);
  EXPECT_NEAR(sim.budget().value(), 0.8 * sim.max_chip_power().value(), 1e-9);
}

TEST(Simulation, LevelScaleIsMonotoneAndNormalized) {
  Simulation sim(default_config());
  EXPECT_DOUBLE_EQ(sim.level_scale(7), 1.0);
  for (std::size_t l = 1; l < 8; ++l) {
    EXPECT_GT(sim.level_scale(l), sim.level_scale(l - 1));
  }
  EXPECT_LT(sim.level_scale(0), 0.3);  // 0.6 GHz at low V is far below fmax
}

TEST(Simulation, ProducesFullTraces) {
  Simulation sim(default_config());
  const SimulationResult res = sim.run(kShortRun);
  EXPECT_EQ(res.gpm_records.size(), 20u);          // 0.1 s / 5 ms
  EXPECT_EQ(res.pic_records.size(), 200u * 4u);    // 200 PIC intervals x 4
  EXPECT_GT(res.total_instructions, 0.0);
  EXPECT_GT(res.avg_chip_power_w, 0.0);
  ASSERT_EQ(res.island_instructions.size(), 4u);
  for (const double instr : res.island_instructions) EXPECT_GT(instr, 0.0);
}

TEST(Simulation, DeterministicAcrossRuns) {
  Simulation a(default_config());
  Simulation b(default_config());
  const SimulationResult ra = a.run(0.05);
  const SimulationResult rb = b.run(0.05);
  EXPECT_DOUBLE_EQ(ra.total_instructions, rb.total_instructions);
  EXPECT_DOUBLE_EQ(ra.avg_chip_power_w, rb.avg_chip_power_w);
  ASSERT_EQ(ra.pic_records.size(), rb.pic_records.size());
  for (std::size_t i = 0; i < ra.pic_records.size(); i += 97) {
    EXPECT_DOUBLE_EQ(ra.pic_records[i].actual_w, rb.pic_records[i].actual_w);
  }
}

TEST(Simulation, ReusedCalibrationMatchesFreshBitExact) {
  // The calibration-reuse constructor (bench sweeps calibrate once per
  // topology) must be indistinguishable from re-running calibration: same
  // records, same aggregates, bit-for-bit.
  Simulation fresh(default_config());
  Simulation reused(default_config(), fresh.calibration(),
                    fresh.max_chip_power());
  EXPECT_DOUBLE_EQ(reused.max_chip_power().value(),
                   fresh.max_chip_power().value());
  EXPECT_DOUBLE_EQ(reused.budget().value(), fresh.budget().value());
  const SimulationResult ra = fresh.run(0.05);
  const SimulationResult rb = reused.run(0.05);
  EXPECT_EQ(ra.total_instructions, rb.total_instructions);
  EXPECT_EQ(ra.avg_chip_power_w, rb.avg_chip_power_w);
  EXPECT_EQ(ra.avg_chip_bips, rb.avg_chip_bips);
  ASSERT_EQ(ra.pic_records.size(), rb.pic_records.size());
  for (std::size_t i = 0; i < ra.pic_records.size(); ++i) {
    ASSERT_EQ(ra.pic_records[i].actual_w, rb.pic_records[i].actual_w);
    ASSERT_EQ(ra.pic_records[i].sensed_w, rb.pic_records[i].sensed_w);
    ASSERT_EQ(ra.pic_records[i].dvfs_level, rb.pic_records[i].dvfs_level);
  }
}

TEST(SimulationRun, FractionalAdvanceMatchesOneShot) {
  // N calls of advance(T/N) must execute exactly the ticks of one
  // advance(T), even for N that make T/N a non-integral tick count: the
  // fractional remainder is carried across calls instead of being re-rounded
  // (and drifting) every call.
  const double total_s = 0.05;
  Simulation whole_sim(default_config());
  auto whole = whole_sim.start();
  whole->advance(total_s);
  const SimulationResult ref = whole->finish();

  for (const int n : {7, 13}) {
    Simulation split_sim(default_config());
    auto split = split_sim.start();
    for (int i = 0; i < n; ++i) split->advance(total_s / n);
    const SimulationResult res = split->finish();
    EXPECT_DOUBLE_EQ(res.duration_s, ref.duration_s) << "n = " << n;
    EXPECT_DOUBLE_EQ(res.total_instructions, ref.total_instructions)
        << "n = " << n;
    EXPECT_EQ(res.gpm_records.size(), ref.gpm_records.size()) << "n = " << n;
  }
}

TEST(SimulationRun, SubTickAdvancesAccumulate) {
  // 25 advances of 0.4 ticks each must execute 10 whole ticks (1 ms), not 25
  // rounded-to-zero no-ops or 25 rounded-up ticks.
  Simulation sim(default_config());
  auto run = sim.start();
  const double dt = 1e-4;  // the simulator tick
  for (int i = 0; i < 25; ++i) run->advance(0.4 * dt);
  EXPECT_NEAR(run->elapsed_s(), 10 * dt, 1e-12);
  (void)run->finish();
}

TEST(SimulationRun, ResumableEqualsOneShot) {
  // start/advance x2/finish must reproduce run() exactly.
  Simulation one(default_config(0.8, 17));
  Simulation two(default_config(0.8, 17));
  const SimulationResult a = one.run(0.06);
  auto live = two.start();
  live->advance(0.03);
  live->advance(0.03);
  const SimulationResult b = live->finish();
  EXPECT_DOUBLE_EQ(a.total_instructions, b.total_instructions);
  EXPECT_DOUBLE_EQ(a.avg_chip_power_w, b.avg_chip_power_w);
  ASSERT_EQ(a.gpm_records.size(), b.gpm_records.size());
  for (std::size_t i = 0; i < a.gpm_records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.gpm_records[i].chip_actual_w,
                     b.gpm_records[i].chip_actual_w);
  }
}

TEST(SimulationRun, LifecycleGuards) {
  Simulation sim(default_config(0.8, 17));
  auto live = sim.start();
  EXPECT_THROW(live->advance(0.0), std::invalid_argument);
  EXPECT_THROW(live->advance(-1.0), std::invalid_argument);
  EXPECT_THROW(live->set_budget(units::Watts{0.0}), std::invalid_argument);
  live->advance(0.01);
  live->finish();
  EXPECT_THROW(live->advance(0.01), std::logic_error);
  EXPECT_THROW(live->finish(), std::logic_error);
  // Live observables are invalid once finish() has consumed the run.
  EXPECT_THROW(live->instructions(), std::logic_error);
  EXPECT_THROW(live->last_window_power().value(), std::logic_error);
}

TEST(SimulationRun, AdvanceRejectsTickCountThatDoesNotFit) {
  Simulation sim(default_config(0.8, 17));
  auto live = sim.start();
  EXPECT_THROW(live->advance(1e300), std::invalid_argument);
  // The rejected call leaves the run where it was.
  EXPECT_EQ(live->elapsed_s(), 0.0);
  live->advance(0.01);
  EXPECT_DOUBLE_EQ(live->elapsed_s(), 0.01);
}

TEST(SimulationRun, MidRunBudgetChangeApplies) {
  Simulation sim(default_config(0.9, 19));
  auto live = sim.start();
  live->advance(0.05);
  const double before = live->last_window_power().value();
  live->set_budget(units::Watts{sim.max_chip_power().value() * 0.6});
  live->advance(0.1);
  const SimulationResult res = live->finish();
  const double after = res.gpm_records.back().chip_actual_w;
  EXPECT_LT(after, before * 0.85);
  EXPECT_NEAR(res.gpm_records.back().chip_budget_w,
              sim.max_chip_power().value() * 0.6, 1e-9);
}

TEST(Simulation, SeedChangesResults) {
  Simulation a(default_config(0.8, 1));
  Simulation b(default_config(0.8, 2));
  EXPECT_NE(a.run(0.05).total_instructions, b.run(0.05).total_instructions);
}

TEST(Simulation, GpmAllocationsRespectBudget) {
  Simulation sim(default_config());
  const SimulationResult res = sim.run(kShortRun);
  for (const auto& g : res.gpm_records) {
    const double total = std::accumulate(g.island_alloc_w.begin(),
                                         g.island_alloc_w.end(), 0.0);
    EXPECT_LE(total, res.budget_w * (1.0 + 1e-9));
  }
}

TEST(Simulation, NoDvfsStaysAtMaxFrequency) {
  Simulation sim(with_manager(default_config(), ManagerKind::kNoDvfs));
  const SimulationResult res = sim.run(0.05);
  for (const auto& rec : res.pic_records) {
    EXPECT_DOUBLE_EQ(rec.freq_ghz, 2.0);
  }
  EXPECT_DOUBLE_EQ(res.dvfs_transitions, 0.0);
}

TEST(Simulation, MaxBipsStaysUnderBudget) {
  // Fig. 11: MaxBIPS's power is always below the budget.
  Simulation sim(with_manager(default_config(), ManagerKind::kMaxBips));
  const SimulationResult res = sim.run(kShortRun);
  const ChipTrackingMetrics chip = chip_tracking_metrics(res.gpm_records);
  EXPECT_LT(chip.max_overshoot, 0.02);
}

TEST(Simulation, CpmUsesMoreOfTheBudgetThanMaxBips) {
  // Fig. 11's qualitative claim: the closed-loop scheme tracks the budget,
  // the open-loop table scheme undershoots it.
  Simulation cpm_sim(default_config());
  Simulation mb_sim(with_manager(default_config(), ManagerKind::kMaxBips));
  const double cpm_power = cpm_sim.run(kShortRun).avg_chip_power_w;
  const double mb_power = mb_sim.run(kShortRun).avg_chip_power_w;
  EXPECT_GT(cpm_power, mb_power);
}

TEST(Simulation, ThermalPolicyRunsAndBoundsShares) {
  SimulationConfig cfg = thermal_config(PolicyKind::kThermal);
  Simulation sim(cfg);
  const SimulationResult res = sim.run(kShortRun);
  EXPECT_FALSE(res.gpm_records.empty());
}

TEST(Simulation, VariationConfigAppliesLeakMults) {
  SimulationConfig cfg = variation_config(PolicyKind::kVariation);
  ASSERT_EQ(cfg.island_leak_mults.size(), 4u);
  Simulation sim(cfg);
  const SimulationResult res = sim.run(0.05);
  EXPECT_FALSE(res.gpm_records.empty());
}

TEST(Simulation, SixteenAndThirtyTwoCoreConfigsRun) {
  Simulation s16(scaled_config(16));
  const SimulationResult r16 = s16.run(0.05);
  EXPECT_EQ(r16.gpm_records.front().island_alloc_w.size(), 4u);

  Simulation s32(scaled_config(32));
  const SimulationResult r32 = s32.run(0.05);
  EXPECT_EQ(r32.gpm_records.front().island_alloc_w.size(), 8u);
}

TEST(Simulation, AdaptiveTransducerRuns) {
  SimulationConfig cfg = default_config();
  cfg.adaptive_transducer = true;
  Simulation sim(cfg);
  const SimulationResult res = sim.run(0.05);
  const ChipTrackingMetrics chip = chip_tracking_metrics(res.gpm_records);
  EXPECT_LT(chip.max_overshoot, 0.15);
}

TEST(Floorplans, ShapesForStandardSizes) {
  EXPECT_EQ(make_floorplan(8).rows(), 2u);
  EXPECT_EQ(make_floorplan(8).cols(), 4u);
  EXPECT_EQ(make_floorplan(16).rows(), 4u);
  EXPECT_EQ(make_floorplan(32).rows(), 4u);
  EXPECT_EQ(make_floorplan(32).cols(), 8u);
  EXPECT_THROW(make_floorplan(0), std::invalid_argument);
}

TEST(IslandAdjacency, EightByOneLayout) {
  // 2x4 grid, 8 single-core islands: island i == core i.
  const auto pairs = island_adjacency(make_floorplan(8), 8, 1);
  // Grid edges of a 2x4 grid: 3 + 3 horizontal + 4 vertical = 10.
  EXPECT_EQ(pairs.size(), 10u);
}

TEST(IslandAdjacency, TwoCoreIslands) {
  // Islands own core pairs {0,1},{2,3},{4,5},{6,7} on the 2x4 grid:
  // cores 0..3 are row 0, cores 4..7 row 1 -> islands 0-1 adjacent (cores
  // 1,2), 2-3 adjacent (cores 5,6), 0-2, 1-3 adjacent vertically.
  const auto pairs = island_adjacency(make_floorplan(8), 4, 2);
  EXPECT_EQ(pairs.size(), 4u);
}

}  // namespace
}  // namespace cpm::core
