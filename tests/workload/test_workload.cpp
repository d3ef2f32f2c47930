#include "workload/workload.h"
#include "util/units.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace cpm::workload {
namespace {

const BenchmarkProfile& canneal() { return find_profile("canneal"); }
const BenchmarkProfile& bschls() { return find_profile("bschls"); }

bool same_bits(const Demand& a, const Demand& b) {
  const auto eq = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  return eq(a.cpi, b.cpi) && eq(a.mem_stall_ns, b.mem_stall_ns) &&
         eq(a.activity, b.activity) &&
         eq(a.bandwidth_demand, b.bandwidth_demand);
}

/// step()'s noise applied to peek()'s demand with a twin generator, using
/// the three-conversion Irwin-Hall mapping fast_normal3 had before it
/// summed the sevenths as integers.
Demand reference_noise(Demand d, double sigma, util::Xoshiro256pp& twin) {
  if (!(sigma > 0.0)) return d;
  const std::uint64_t draw = twin();
  const auto deviate = [](std::uint64_t field) {
    const double a = static_cast<double>(field & 0x7Fu);
    const double b = static_cast<double>((field >> 7) & 0x7Fu);
    const double c = static_cast<double>((field >> 14) & 0x7Fu);
    return ((a + b + c + 1.5) * 0x1.0p-7 - 1.5) * 2.0;
  };
  const double f1 = deviate(draw & 0x1FFFFFu);
  const double f2 = deviate((draw >> 21) & 0x1FFFFFu);
  const double f3 = deviate((draw >> 42) & 0x1FFFFFu);
  const double n1 = std::clamp(1.0 + sigma * f1, 0.5, 1.5);
  const double n2 = std::clamp(1.0 + sigma * f2, 0.5, 1.5);
  const double n3 = std::clamp(1.0 + 0.5 * sigma * f3, 0.7, 1.3);
  d.cpi *= n1;
  d.mem_stall_ns *= n2;
  d.activity = std::clamp(d.activity * n3, 0.05, 1.2);
  d.bandwidth_demand *= n2;
  return d;
}

TEST(Workload, StepEqualsPeekPlusTwinNoiseOverFullPhaseCycles) {
  // step() serves cached phase demand and an inline ramp lerp; peek()
  // recomputes from (phase, clock). Over two full phase cycles of every
  // profile, ramps included, step() must equal peek() plus the noise a
  // twin generator yields, bit for bit.
  std::vector<const BenchmarkProfile*> profiles;
  for (const auto suite : {parsec_profiles(), spec_profiles(),
                            extra_parsec_profiles()}) {
    for (const BenchmarkProfile& p : suite) profiles.push_back(&p);
  }
  constexpr double kDt = 1e-4;
  std::uint64_t seed = 100;
  for (const BenchmarkProfile* profile : profiles) {
    double cycle_ms = 0.0;
    for (const Phase& ph : profile->phases) {
      cycle_ms += ph.duration_ms * profile->phase_time_scale;
    }
    const auto ticks = static_cast<int>(2.0 * cycle_ms / (kDt * 1e3)) + 10;
    ++seed;
    WorkloadInstance w(*profile, seed, units::Milliseconds{3.3});
    util::Xoshiro256pp twin(seed);
    std::size_t phase_changes = 0, ramp_ticks = 0;
    std::size_t last_phase = w.phase_index();
    for (int t = 0; t < ticks; ++t) {
      const Demand got = w.step(kDt);
      const Demand base = w.peek();
      const Demand want = reference_noise(base, profile->noise_sigma, twin);
      ASSERT_TRUE(same_bits(got, want))
          << profile->name << " tick " << t << ": cpi " << got.cpi << " vs "
          << want.cpi;
      if (w.phase_index() != last_phase) {
        ++phase_changes;
        last_phase = w.phase_index();
      }
      const Phase& cur = profile->phases[w.phase_index()];
      if (base.cpi != profile->cpi_base * cur.cpi_mult ||
          base.activity != profile->activity_active * cur.activity_mult) {
        ++ramp_ticks;
      }
    }
    EXPECT_GE(phase_changes, profile->phases.size()) << profile->name;
    if (profile->phases.size() > 1) {
      EXPECT_GT(ramp_ticks, 0u) << profile->name;
    }
  }
}

TEST(Workload, DeterministicForSameSeed) {
  WorkloadInstance a(canneal(), 42), b(canneal(), 42);
  for (int i = 0; i < 500; ++i) {
    const Demand da = a.step(1e-4);
    const Demand db = b.step(1e-4);
    ASSERT_DOUBLE_EQ(da.cpi, db.cpi);
    ASSERT_DOUBLE_EQ(da.mem_stall_ns, db.mem_stall_ns);
    ASSERT_DOUBLE_EQ(da.activity, db.activity);
  }
}

TEST(Workload, DifferentSeedsDiffer) {
  WorkloadInstance a(canneal(), 1), b(canneal(), 2);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    if (a.step(1e-4).cpi != b.step(1e-4).cpi) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Workload, PhasesAdvanceAndCycle) {
  WorkloadInstance w(bschls(), 7);
  const std::size_t initial = w.phase_index();
  // Advance well past one full cycle (phase durations are scaled 3x).
  std::size_t changes = 0;
  std::size_t last = initial;
  for (int i = 0; i < 4000; ++i) {
    w.step(1e-4);  // 400 ms total
    if (w.phase_index() != last) {
      ++changes;
      last = w.phase_index();
    }
  }
  EXPECT_GT(changes, 4u);  // cycled through the program at least once
}

TEST(Workload, PhaseOffsetDesynchronizes) {
  WorkloadInstance a(bschls(), 5, units::Milliseconds{0.0});
  WorkloadInstance b(bschls(), 5, units::Milliseconds{25.0});
  EXPECT_NE(a.phase_index(), b.phase_index());
}

TEST(Workload, DemandStaysPhysical) {
  WorkloadInstance w(canneal(), 11);
  for (int i = 0; i < 5000; ++i) {
    const Demand d = w.step(1e-4);
    ASSERT_GT(d.cpi, 0.0);
    ASSERT_GE(d.mem_stall_ns, 0.0);
    ASSERT_GT(d.activity, 0.0);
    ASSERT_LE(d.activity, 1.2);
    ASSERT_GE(d.bandwidth_demand, 0.0);
  }
}

TEST(Workload, MeanDemandNearProfileBase) {
  // Phase multipliers average near 1, noise is zero-mean: long-run mean CPI
  // should be near the profile's base (within 15 %).
  WorkloadInstance w(bschls(), 3);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += w.step(1e-4).cpi;
  EXPECT_NEAR(sum / kN, bschls().cpi_base, bschls().cpi_base * 0.15);
}

TEST(Workload, RampSmoothsPhaseTransitions) {
  // Deterministic check on the noise-free peek(): consecutive peeks across a
  // phase boundary must not jump more than the ramp slope allows.
  WorkloadInstance w(canneal(), 13);
  double prev = w.peek().mem_stall_ns;
  double max_jump = 0.0;
  for (int i = 0; i < 20000; ++i) {
    w.step(5e-5);
    const double cur = w.peek().mem_stall_ns;
    max_jump = std::max(max_jump, std::abs(cur - prev));
    prev = cur;
  }
  // Without ramping, a phase step of mem_mult 0.85 -> 1.45 would jump
  // 0.6 * 1.5 ns = 0.9 ns at once; with ramping over ~30 % of a multi-ms
  // phase, per-50us jumps are tiny.
  EXPECT_LT(max_jump, 0.1);
}

TEST(Workload, PeekDoesNotAdvanceState) {
  WorkloadInstance w(canneal(), 17);
  const Demand p1 = w.peek();
  const Demand p2 = w.peek();
  EXPECT_DOUBLE_EQ(p1.cpi, p2.cpi);
  EXPECT_DOUBLE_EQ(p1.mem_stall_ns, p2.mem_stall_ns);
}

}  // namespace
}  // namespace cpm::workload
