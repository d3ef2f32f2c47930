#include "core/simulation.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>
#include <numeric>

#include "core/experiment.h"
#include "core/record_sink.h"
#include "workload/mixes.h"
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

/// Configs that share one plant configuration but differ in everything a
/// batch allows to differ: seed, mix, manager, policy, budget and its
/// schedule, leakage multipliers, sensing and migration.
std::vector<SimulationConfig> batch_configs() {
  std::vector<SimulationConfig> configs;
  for (std::size_t k = 0; k < 4; ++k) {
    SimulationConfig cfg = default_config(0.6 + 0.1 * static_cast<double>(k),
                                          70 + k);
    cfg.calibration_seconds = 0.02;
    configs.push_back(std::move(cfg));
  }
  configs[1].mix = workload::mix2();
  configs[1].manager = ManagerKind::kMaxBips;
  configs[1].island_leak_mults = {1.4, 0.9, 1.0, 1.2};
  configs[2].policy = PolicyKind::kThermal;
  configs[2].enable_migration = true;
  configs[2].sensor_noise_sigma = 0.02;
  configs[2].budget_schedule = {{0.02, 0.5}};
  configs[3].manager = ManagerKind::kNoDvfs;
  return configs;
}

/// The bit pattern of `x` (tells signed zeros apart, as == does not).
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<std::uint64_t> bits(const std::vector<double>& xs) {
  std::vector<std::uint64_t> out;
  for (const double x : xs) out.push_back(bits(x));
  return out;
}

/// Expects every field of two results, every record's included, to hold
/// the same bits.
void expect_same_result(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.pic_records_seen, b.pic_records_seen);
  EXPECT_EQ(a.gpm_records_seen, b.gpm_records_seen);
  EXPECT_EQ(bits(a.duration_s), bits(b.duration_s));
  EXPECT_EQ(bits(a.max_chip_power_w), bits(b.max_chip_power_w));
  EXPECT_EQ(bits(a.budget_w), bits(b.budget_w));
  EXPECT_EQ(bits(a.total_instructions), bits(b.total_instructions));
  EXPECT_EQ(bits(a.avg_chip_power_w), bits(b.avg_chip_power_w));
  EXPECT_EQ(bits(a.avg_chip_bips), bits(b.avg_chip_bips));
  EXPECT_EQ(bits(a.hotspot_fraction), bits(b.hotspot_fraction));
  EXPECT_EQ(bits(a.dvfs_transitions), bits(b.dvfs_transitions));
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(bits(a.island_instructions), bits(b.island_instructions));
  EXPECT_EQ(bits(a.island_energy_j), bits(b.island_energy_j));
  EXPECT_EQ(bits(a.island_avg_bips), bits(b.island_avg_bips));
  ASSERT_EQ(a.island_level_residency.size(), b.island_level_residency.size());
  for (std::size_t i = 0; i < a.island_level_residency.size(); ++i) {
    EXPECT_EQ(bits(a.island_level_residency[i]),
              bits(b.island_level_residency[i]))
        << "island " << i;
  }
  const CalibrationResult& ca = a.calibration;
  const CalibrationResult& cb = b.calibration;
  ASSERT_EQ(ca.transducers.size(), cb.transducers.size());
  for (std::size_t i = 0; i < ca.transducers.size(); ++i) {
    EXPECT_EQ(bits(ca.transducers[i].k1), bits(cb.transducers[i].k1));
    EXPECT_EQ(bits(ca.transducers[i].k0), bits(cb.transducers[i].k0));
    EXPECT_EQ(bits(ca.transducers[i].r_squared),
              bits(cb.transducers[i].r_squared));
  }
  EXPECT_EQ(bits(ca.plant_gains), bits(cb.plant_gains));
  EXPECT_EQ(bits(ca.plant_gain_r2), bits(cb.plant_gain_r2));
  EXPECT_EQ(bits(ca.island_peak_power_w), bits(cb.island_peak_power_w));
  EXPECT_EQ(bits(ca.island_fmax_bips), bits(cb.island_fmax_bips));
  EXPECT_EQ(bits(ca.island_fmax_leakage_w), bits(cb.island_fmax_leakage_w));
  ASSERT_EQ(a.pic_records.size(), b.pic_records.size());
  for (std::size_t i = 0; i < a.pic_records.size(); ++i) {
    const PicIntervalRecord& x = a.pic_records[i];
    const PicIntervalRecord& y = b.pic_records[i];
    SCOPED_TRACE("pic record " + std::to_string(i));
    ASSERT_EQ(bits(x.time_s), bits(y.time_s));
    ASSERT_EQ(x.island, y.island);
    ASSERT_EQ(bits(x.target_w), bits(y.target_w));
    ASSERT_EQ(bits(x.sensed_w), bits(y.sensed_w));
    ASSERT_EQ(bits(x.actual_w), bits(y.actual_w));
    ASSERT_EQ(bits(x.utilization), bits(y.utilization));
    ASSERT_EQ(bits(x.bips), bits(y.bips));
    ASSERT_EQ(bits(x.freq_ghz), bits(y.freq_ghz));
    ASSERT_EQ(x.dvfs_level, y.dvfs_level);
  }
  ASSERT_EQ(a.gpm_records.size(), b.gpm_records.size());
  for (std::size_t i = 0; i < a.gpm_records.size(); ++i) {
    const GpmIntervalRecord& x = a.gpm_records[i];
    const GpmIntervalRecord& y = b.gpm_records[i];
    SCOPED_TRACE("gpm record " + std::to_string(i));
    ASSERT_EQ(bits(x.time_s), bits(y.time_s));
    ASSERT_EQ(bits(x.island_alloc_w), bits(y.island_alloc_w));
    ASSERT_EQ(bits(x.island_actual_w), bits(y.island_actual_w));
    ASSERT_EQ(bits(x.island_bips), bits(y.island_bips));
    ASSERT_EQ(bits(x.chip_actual_w), bits(y.chip_actual_w));
    ASSERT_EQ(bits(x.chip_budget_w), bits(y.chip_budget_w));
    ASSERT_EQ(bits(x.chip_bips), bits(y.chip_bips));
    ASSERT_EQ(bits(x.max_temp_c), bits(y.max_temp_c));
  }
}

TEST(RunBatch, MatchesSoloRunsBitExact) {
  // Runs stepped in lockstep through one batched plant are, record for
  // record, the runs each simulation gives alone, under uneven advances
  // and a mid-run supervisor budget change. A fifth chip has uneven island
  // sizes {2, 3, 1, 2} beside the others' {2, 2, 2, 2} under the same
  // 8-core CmpConfig, and two chips watch for hotspots at thresholds of
  // their own (the batch's per-core threshold column).
  std::vector<SimulationConfig> configs = batch_configs();
  SimulationConfig uneven = configs[0];
  uneven.seed = 75;
  uneven.mix.islands[1].push_back(uneven.mix.islands[2].back());
  uneven.mix.islands[2].pop_back();
  uneven.hotspot_threshold_c = 48.0;
  configs.push_back(uneven);
  configs[0].hotspot_threshold_c = 49.0;
  std::vector<std::unique_ptr<Simulation>> sims;
  for (const SimulationConfig& cfg : configs) {
    sims.push_back(std::make_unique<Simulation>(cfg));
  }
  const double slices[] = {0.013, 0.0004, 0.021, 0.016};
  // Chip 3's supervisor halves its budget before the third advance.
  const auto drive = [&slices](auto&& advance, SimulationRun* run3) {
    for (std::size_t s = 0; s < std::size(slices); ++s) {
      if (s == 2 && run3 != nullptr) {
        run3->set_budget(units::Watts{0.5 * run3->budget().value()});
      }
      advance(slices[s]);
    }
  };
  std::vector<SimulationResult> solo;
  for (std::size_t k = 0; k < sims.size(); ++k) {
    auto run = sims[k]->start();
    drive([&run](double t) { run->advance(t); }, k == 3 ? run.get() : nullptr);
    solo.push_back(run->finish());
  }
  std::vector<InMemorySink> sinks(sims.size());
  std::vector<Simulation*> sim_ptrs;
  std::vector<RecordSink*> sink_ptrs;
  for (std::size_t k = 0; k < sims.size(); ++k) {
    sim_ptrs.push_back(sims[k].get());
    sink_ptrs.push_back(&sinks[k]);
  }
  RunBatch batch(sim_ptrs, sink_ptrs);
  ASSERT_EQ(batch.size(), sims.size());
  drive([&batch](double t) { batch.advance(t); }, &batch.run(3));
  for (std::size_t k = 0; k < sims.size(); ++k) {
    SCOPED_TRACE("chip " + std::to_string(k));
    expect_same_result(solo[k], batch.run(k).finish());
  }
  EXPECT_GT(solo[2].migrations, 0u);
  // The thresholds matter: chips 0 and 4 spend part of the run hot, the
  // default 85 C keeps chip 1 cool.
  EXPECT_GT(solo[0].hotspot_fraction, 0.0);
  EXPECT_LT(solo[0].hotspot_fraction, 1.0);
  EXPECT_GT(solo[4].hotspot_fraction, 0.0);
  EXPECT_EQ(solo[1].hotspot_fraction, 0.0);
  EXPECT_NE(solo[0].hotspot_fraction, solo[4].hotspot_fraction);
}

TEST(CalibrateChips, MatchesSoloAcrossLengthsAndPlants) {
  // Consecutive same-plant configs calibrate in lockstep even when their
  // calibration lengths differ (a shorter one keeps stepping and records
  // nothing more); a config with other thermal parameters starts a batch of
  // its own. Each result is the one a solo Simulation computes.
  std::vector<SimulationConfig> configs = batch_configs();
  configs[1].calibration_seconds = 0.035;
  configs[2].thermal_params.two_layer = true;
  configs[3].calibration_seconds = 0.0;  // the 16-interval minimum
  const std::vector<ChipCalibration> batched = calibrate_chips(configs);
  ASSERT_EQ(batched.size(), configs.size());
  for (std::size_t k = 0; k < configs.size(); ++k) {
    SCOPED_TRACE("chip " + std::to_string(k));
    const Simulation solo(configs[k]);
    const CalibrationResult& a = batched[k].calibration;
    const CalibrationResult& b = solo.calibration();
    EXPECT_EQ(batched[k].max_chip_power.value(), solo.max_chip_power().value());
    EXPECT_EQ(a.plant_gains, b.plant_gains);
    EXPECT_EQ(a.plant_gain_r2, b.plant_gain_r2);
    EXPECT_EQ(a.island_peak_power_w, b.island_peak_power_w);
    EXPECT_EQ(a.island_fmax_bips, b.island_fmax_bips);
    EXPECT_EQ(a.island_fmax_leakage_w, b.island_fmax_leakage_w);
    ASSERT_EQ(a.transducers.size(), b.transducers.size());
    for (std::size_t i = 0; i < a.transducers.size(); ++i) {
      EXPECT_EQ(a.transducers[i].k1, b.transducers[i].k1);
      EXPECT_EQ(a.transducers[i].k0, b.transducers[i].k0);
    }
  }
  configs[0].budget_fraction = 0.0;
  EXPECT_THROW(calibrate_chips(configs), std::invalid_argument);
}

TEST(RunBatch, Guards) {
  const std::vector<SimulationConfig> configs = batch_configs();
  Simulation a(configs[0]);
  Simulation b(configs[1]);
  SimulationConfig other_cfg = configs[2];
  other_cfg.thermal_params.ambient_c = 40.0;
  Simulation other(other_cfg);
  InMemorySink sink_a, sink_b;
  std::vector<RecordSink*> two_sinks{&sink_a, &sink_b};
  std::vector<Simulation*> one{&a};
  std::vector<Simulation*> mixed{&a, &other};
  EXPECT_THROW(RunBatch({}, {}), std::invalid_argument);
  EXPECT_THROW(RunBatch(one, two_sinks), std::invalid_argument);
  EXPECT_THROW(RunBatch(mixed, two_sinks), std::invalid_argument);

  std::vector<Simulation*> pair{&a, &b};
  RunBatch batch(pair, two_sinks);
  // A batched run's plant steps its neighbour too.
  EXPECT_THROW(batch.run(0).advance(0.01), std::logic_error);
  EXPECT_THROW(batch.advance(-1.0), std::invalid_argument);
  batch.advance(0.01);
  EXPECT_DOUBLE_EQ(batch.run(1).elapsed_s(), 0.01);
  batch.run(1).finish();
  EXPECT_THROW(batch.advance(0.01), std::logic_error);
  // The refused advance moved neither run.
  EXPECT_DOUBLE_EQ(batch.run(0).elapsed_s(), 0.01);
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
