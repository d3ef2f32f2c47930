#include "sim/core.h"

#include <gtest/gtest.h>

#include <ostream>

#include "workload/profile.h"

namespace cpm::workload {

// Names the parameter of CoreModelFrequencyScaling in test listings.
static void PrintTo(const BenchmarkProfile& profile, std::ostream* os) {
  *os << profile.name;
}

}  // namespace cpm::workload

namespace cpm::sim {
namespace {

constexpr double kDt = 1e-4;

double mean_bips(const workload::BenchmarkProfile& profile, double freq_ghz,
                 double congestion = 0.0, double stall = 0.0,
                 int steps = 2000) {
  CoreModel core(profile, 42, /*gamma=*/0.5);
  const DvfsPoint op{1.1, freq_ghz};
  double sum = 0.0;
  for (int i = 0; i < steps; ++i) {
    sum += core.step(kDt, op, congestion, stall).bips;
  }
  return sum / steps;
}

double mean_util(const workload::BenchmarkProfile& profile, double freq_ghz) {
  CoreModel core(profile, 42, 0.5);
  const DvfsPoint op{1.1, freq_ghz};
  double sum = 0.0;
  constexpr int kSteps = 2000;
  for (int i = 0; i < kSteps; ++i) {
    sum += core.step(kDt, op, 0.0, 0.0).utilization;
  }
  return sum / kSteps;
}

// Frequency scaling across the DVFS table's range (0.6 -> 2.0 GHz) for
// each of the paper's eight PARSEC profiles: every CPU-bound code speeds up
// more than every memory-bound one, and utilization falls as f rises.
double speedup(const workload::BenchmarkProfile& profile) {
  return mean_bips(profile, 2.0) / mean_bips(profile, 0.6);
}

class CoreModelFrequencyScaling
    : public ::testing::TestWithParam<workload::BenchmarkProfile> {};

TEST_P(CoreModelFrequencyScaling, ClassesSeparateAndUtilizationFalls) {
  const workload::BenchmarkProfile& p = GetParam();
  const double s = speedup(p);
  EXPECT_GT(s, 1.0);
  for (const auto& other : workload::parsec_profiles()) {
    if (other.cpu_bound() == p.cpu_bound()) continue;
    if (p.cpu_bound()) {
      EXPECT_GT(s, speedup(other)) << other.name;
    } else {
      EXPECT_LT(s, speedup(other)) << other.name;
    }
  }
  EXPECT_GT(mean_util(p, 0.6), mean_util(p, 2.0));
}

INSTANTIATE_TEST_SUITE_P(Parsec, CoreModelFrequencyScaling,
                         ::testing::ValuesIn(workload::parsec_profiles()));

TEST(CoreModel, UtilizationBounds) {
  const auto& p = workload::find_profile("vips");
  CoreModel core(p, 1, 0.5);
  for (int i = 0; i < 3000; ++i) {
    const CoreTick t = core.step(kDt, {1.0, 1.4}, 0.5, 0.0);
    ASSERT_GE(t.utilization, 0.0);
    ASSERT_LE(t.utilization, 1.0);
  }
}

TEST(CoreModel, CongestionReducesThroughput) {
  const auto& p = workload::find_profile("canneal");
  EXPECT_GT(mean_bips(p, 2.0, /*congestion=*/0.0),
            mean_bips(p, 2.0, /*congestion=*/2.0));
}

TEST(CoreModel, CongestionDoesNotAffectPureCompute) {
  // A profile with zero memory stall is immune to congestion.
  workload::BenchmarkProfile pure = workload::find_profile("bschls");
  pure.mem_stall_ns = 0.0;
  pure.noise_sigma = 0.0;
  pure.phases = {};
  const double free = mean_bips(pure, 2.0, 0.0);
  const double congested = mean_bips(pure, 2.0, 5.0);
  EXPECT_NEAR(free, congested, free * 1e-9);
}

TEST(CoreModel, StallFractionScalesInstructions) {
  workload::BenchmarkProfile quiet = workload::find_profile("bschls");
  quiet.noise_sigma = 0.0;
  quiet.phases = {};
  const double full = mean_bips(quiet, 2.0, 0.0, /*stall=*/0.0);
  const double half = mean_bips(quiet, 2.0, 0.0, /*stall=*/0.5);
  EXPECT_NEAR(half, full * 0.5, full * 0.01);
}

TEST(CoreModel, BipsMatchesInstructionRate) {
  const auto& p = workload::find_profile("fmine");
  CoreModel core(p, 4, 0.5);
  const CoreTick t = core.step(kDt, {1.0, 1.0}, 0.0, 0.0);
  EXPECT_NEAR(t.instructions, t.bips * 1e9 * kDt, 1e-6);
}

TEST(CoreModel, ExportsPowerModelInputs) {
  const auto& p = workload::find_profile("vips");
  CoreModel core(p, 5, 0.5);
  const CoreTick t = core.step(kDt, {1.0, 1.0}, 0.0, 0.0);
  EXPECT_GT(t.activity, 0.0);
  EXPECT_DOUBLE_EQ(t.activity_idle, p.activity_idle);
  EXPECT_DOUBLE_EQ(t.ceff_scale, p.ceff_scale);
  EXPECT_GT(t.bandwidth_demand, 0.0);
}

}  // namespace
}  // namespace cpm::sim
