#include "core/metrics.h"

#include <gtest/gtest.h>

#include <vector>

namespace cpm::core {
namespace {

PicIntervalRecord rec(std::size_t island, double target, double actual) {
  PicIntervalRecord r;
  r.island = island;
  r.target_w = target;
  r.actual_w = actual;
  r.sensed_w = actual;
  return r;
}

TrackingOptions no_warmup() {
  TrackingOptions o;
  o.warmup_windows = 0;
  o.window = 5;
  return o;
}

TEST(IslandMetrics, EmptyRecords) {
  const IslandTrackingMetrics m = island_tracking_metrics({}, 0);
  EXPECT_EQ(m.max_overshoot, 0.0);
}

TEST(IslandMetrics, PerfectTracking) {
  std::vector<PicIntervalRecord> records;
  for (int i = 0; i < 10; ++i) records.push_back(rec(0, 10.0, 10.0));
  const IslandTrackingMetrics m =
      island_tracking_metrics(records, 0, no_warmup());
  EXPECT_DOUBLE_EQ(m.max_overshoot, 0.0);
  EXPECT_EQ(m.worst_settling_time, 0u);
  EXPECT_DOUBLE_EQ(m.steady_state_error, 0.0);
}

TEST(IslandMetrics, OvershootRelativeToTarget) {
  std::vector<PicIntervalRecord> records;
  records.push_back(rec(0, 10.0, 12.0));  // 20 % over
  for (int i = 0; i < 4; ++i) records.push_back(rec(0, 10.0, 10.0));
  const IslandTrackingMetrics m =
      island_tracking_metrics(records, 0, no_warmup());
  EXPECT_NEAR(m.max_overshoot, 0.2, 1e-12);
}

TEST(IslandMetrics, UndershootIsNotOvershoot) {
  std::vector<PicIntervalRecord> records;
  for (int i = 0; i < 5; ++i) records.push_back(rec(0, 10.0, 8.0));
  const IslandTrackingMetrics m =
      island_tracking_metrics(records, 0, no_warmup());
  EXPECT_DOUBLE_EQ(m.max_overshoot, 0.0);
  EXPECT_NEAR(m.mean_tracking_error, 0.2, 1e-12);
}

TEST(IslandMetrics, SettlingDetectsConvergence) {
  std::vector<PicIntervalRecord> records;
  records.push_back(rec(0, 10.0, 14.0));
  records.push_back(rec(0, 10.0, 11.0));
  records.push_back(rec(0, 10.0, 10.1));
  records.push_back(rec(0, 10.0, 10.0));
  records.push_back(rec(0, 10.0, 10.0));
  const IslandTrackingMetrics m =
      island_tracking_metrics(records, 0, no_warmup());
  EXPECT_EQ(m.worst_settling_time, 2u);
}

TEST(IslandMetrics, FiltersByIsland) {
  std::vector<PicIntervalRecord> records;
  for (int i = 0; i < 5; ++i) {
    records.push_back(rec(0, 10.0, 10.0));
    records.push_back(rec(1, 10.0, 20.0));
  }
  const IslandTrackingMetrics m0 =
      island_tracking_metrics(records, 0, no_warmup());
  const IslandTrackingMetrics m1 =
      island_tracking_metrics(records, 1, no_warmup());
  EXPECT_DOUBLE_EQ(m0.max_overshoot, 0.0);
  EXPECT_NEAR(m1.max_overshoot, 1.0, 1e-12);
}

TEST(IslandMetrics, WarmupWindowsExcluded) {
  TrackingOptions opt = no_warmup();
  opt.warmup_windows = 1;  // skip the first 5 records
  std::vector<PicIntervalRecord> records;
  for (int i = 0; i < 5; ++i) records.push_back(rec(0, 10.0, 30.0));  // awful
  for (int i = 0; i < 5; ++i) records.push_back(rec(0, 10.0, 10.0));  // clean
  const IslandTrackingMetrics m = island_tracking_metrics(records, 0, opt);
  EXPECT_DOUBLE_EQ(m.max_overshoot, 0.0);
}

TEST(IslandMetrics, UsesSensedWhenRequested) {
  TrackingOptions opt = no_warmup();
  opt.use_sensed = true;
  std::vector<PicIntervalRecord> records;
  for (int i = 0; i < 5; ++i) {
    PicIntervalRecord r = rec(0, 10.0, 15.0);
    r.sensed_w = 10.0;  // the controller thinks it is on target
    records.push_back(r);
  }
  const IslandTrackingMetrics m = island_tracking_metrics(records, 0, opt);
  EXPECT_DOUBLE_EQ(m.max_overshoot, 0.0);
}

GpmIntervalRecord gpm_rec(double actual, double budget) {
  GpmIntervalRecord r;
  r.chip_actual_w = actual;
  r.chip_budget_w = budget;
  return r;
}

TEST(ChipMetrics, OverAndUndershoot) {
  std::vector<GpmIntervalRecord> records{
      gpm_rec(80.0, 80.0), gpm_rec(84.0, 80.0), gpm_rec(76.0, 80.0)};
  const ChipTrackingMetrics m = chip_tracking_metrics(records, 0);
  EXPECT_NEAR(m.max_overshoot, 0.05, 1e-12);
  EXPECT_NEAR(m.max_undershoot, 0.05, 1e-12);
  EXPECT_NEAR(m.mean_power_w, 80.0, 1e-12);
}

TEST(ChipMetrics, WarmupSkipped) {
  std::vector<GpmIntervalRecord> records{
      gpm_rec(160.0, 80.0),  // warmup junk
      gpm_rec(80.0, 80.0), gpm_rec(80.0, 80.0)};
  const ChipTrackingMetrics m = chip_tracking_metrics(records, 1);
  EXPECT_DOUBLE_EQ(m.max_overshoot, 0.0);
}

TEST(ChipMetrics, BatchMatchesStreamedWithinWarmup) {
  // A trace no longer than the warm-up: the batch metrics exclude the
  // warm-up windows exactly as a sink's streaming accumulator does, so the
  // reported tracking never depends on which sink recorded the run.
  const std::vector<GpmIntervalRecord> records{gpm_rec(90.0, 80.0),
                                               gpm_rec(76.0, 80.0)};
  ChipTrackingAccumulator streamed(2);
  for (const GpmIntervalRecord& rec : records) streamed.add(rec);
  const ChipTrackingMetrics batch = chip_tracking_metrics(records, 2);
  const ChipTrackingMetrics stream = streamed.metrics();
  EXPECT_EQ(batch.max_overshoot, stream.max_overshoot);
  EXPECT_EQ(batch.max_undershoot, stream.max_undershoot);
  EXPECT_EQ(batch.mean_abs_error, stream.mean_abs_error);
  EXPECT_EQ(batch.mean_power_w, stream.mean_power_w);
  EXPECT_EQ(batch.max_overshoot, 0.0);
}

TEST(Degradation, ComputesInstructionLoss) {
  SimulationResult managed, baseline;
  managed.total_instructions = 96.0;
  baseline.total_instructions = 100.0;
  EXPECT_NEAR(performance_degradation(managed, baseline), 0.04, 1e-12);
}

TEST(Degradation, ZeroBaselineIsZero) {
  SimulationResult managed, baseline;
  EXPECT_DOUBLE_EQ(performance_degradation(managed, baseline), 0.0);
}

TEST(Degradation, OverTimeSeries) {
  SimulationResult managed, baseline;
  for (int i = 0; i < 3; ++i) {
    GpmIntervalRecord m, b;
    m.chip_bips = 9.0;
    b.chip_bips = 10.0;
    managed.gpm_records.push_back(m);
    baseline.gpm_records.push_back(b);
  }
  const auto series = degradation_over_time(managed, baseline);
  ASSERT_EQ(series.size(), 3u);
  for (const double d : series) EXPECT_NEAR(d, 0.1, 1e-12);
}

}  // namespace
}  // namespace cpm::core
