#include "workload/demand_bank.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/isa.h"
#include "workload/custom.h"
#include "workload/profile.h"
#include "workload/workload.h"

namespace cpm::workload {
namespace {

constexpr double kTick = 1e-4;  // the default 100 us simulation tick

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::vector<const BenchmarkProfile*> builtin_profiles() {
  std::vector<const BenchmarkProfile*> all;
  for (const auto suite : {parsec_profiles(), spec_profiles(),
                           extra_parsec_profiles()}) {
    for (const BenchmarkProfile& p : suite) all.push_back(&p);
  }
  return all;
}

double cycle_ms(const BenchmarkProfile& p) {
  double total = 0.0;
  for (const Phase& phase : p.phases) total += phase.duration_ms;
  return total * p.phase_time_scale;
}

/// A bank and one WorkloadInstance per row, built from the same arguments
/// and stepped together.
class Twins {
 public:
  void add(const BenchmarkProfile& profile, std::uint64_t seed,
           double offset_ms = 0.0) {
    const units::Milliseconds offset{offset_ms};
    bank_.add(profile, seed, offset);
    instances_.emplace_back(profile, seed, offset);
    cpi_.push_back(0.0);
    mem_.push_back(0.0);
    act_.push_back(0.0);
    bw_.push_back(0.0);
  }

  DemandBank& bank() { return bank_; }

  /// Steps both sides; returns the number of rows inside a ramp window.
  std::size_t step_and_compare(double dt, util::Isa isa, int tick) {
    bank_.step(dt, {cpi_.data(), mem_.data(), act_.data(), bw_.data()}, isa);
    std::size_t ramping = 0;
    for (std::size_t r = 0; r < instances_.size(); ++r) {
      const Demand want = instances_[r].step(dt);
      const std::string where = std::string(instances_[r].profile().name) +
                                " row " + std::to_string(r) + " tick " +
                                std::to_string(tick);
      EXPECT_TRUE(same_bits(cpi_[r], want.cpi)) << where;
      EXPECT_TRUE(same_bits(mem_[r], want.mem_stall_ns)) << where;
      EXPECT_TRUE(same_bits(act_[r], want.activity)) << where;
      EXPECT_TRUE(same_bits(bw_[r], want.bandwidth_demand)) << where;
      EXPECT_EQ(bank_.phase_index(r), instances_[r].phase_index()) << where;
      EXPECT_EQ(&bank_.profile(r), &instances_[r].profile()) << where;
      const Demand held = instances_[r].peek();
      const auto& phases = instances_[r].profile().phases;
      if (phases.size() > 1) {
        const Phase& cur = phases[instances_[r].phase_index()];
        if (held.cpi != instances_[r].profile().cpi_base * cur.cpi_mult) {
          ++ramping;
        }
      }
    }
    return ramping;
  }

  void swap_instances(std::size_t a, std::size_t b) {
    std::swap(instances_[a], instances_[b]);
  }

 private:
  DemandBank bank_;
  std::vector<WorkloadInstance> instances_;
  std::vector<double> cpi_, mem_, act_, bw_;
};

// Each test that takes an ISA runs at every tier this host runs
// (util::host_isas()): the bank must equal WorkloadInstance at each.
TEST(DemandBank, MatchesWorkloadInstanceOverTwoCyclesOfEveryProfile) {
  for (const util::Isa isa : util::host_isas()) {
    Twins twins;
    double longest_ms = 0.0;
    std::uint64_t seed = 100;
    for (const BenchmarkProfile* p : builtin_profiles()) {
      twins.add(*p, ++seed);
      longest_ms = std::max(longest_ms, cycle_ms(*p));
    }
    // Two full phase cycles of the longest program, one tick further.
    const int ticks = static_cast<int>(2.0 * longest_ms / (kTick * 1e3)) + 1;
    std::size_t ramp_ticks = 0;
    for (int t = 0; t < ticks; ++t) {
      ramp_ticks += twins.step_and_compare(kTick, isa, t);
      if (HasFailure()) FAIL() << "isa " << util::isa_name(isa);
    }
    EXPECT_GT(ramp_ticks, 0u) << "the run never sampled a ramp window";
  }
}

TEST(DemandBank, LongTickRollsSeveralPhasesAtOnce) {
  for (const util::Isa isa : util::host_isas()) {
    Twins twins;
    std::uint64_t seed = 7;
    for (const BenchmarkProfile* p : builtin_profiles()) twins.add(*p, ++seed);
    // 40 ms ticks run past several phases of every built-in program.
    for (int t = 0; t < 50; ++t) {
      twins.step_and_compare(0.04, isa, t);
      if (HasFailure()) FAIL() << "isa " << util::isa_name(isa);
    }
  }
}

TEST(DemandBank, PhaseOffsetsMatch) {
  for (const util::Isa isa : util::host_isas()) {
    Twins twins;
    const BenchmarkProfile& canneal = find_profile("canneal");
    const BenchmarkProfile& bschls = find_profile("bschls");
    // Negative offsets clamp to zero; large ones roll phases in add().
    for (const double offset : {0.0, 1.7, 3.3, 25.0, 250.0, -4.0}) {
      twins.add(canneal, 11, offset);
      twins.add(bschls, 12, offset);
    }
    for (int t = 0; t < 2000; ++t) {
      twins.step_and_compare(kTick, isa, t);
      if (HasFailure()) FAIL() << "isa " << util::isa_name(isa);
    }
  }
}

TEST(DemandBank, CustomProfilesWithFewPhasesAndOddSigmas) {
  const BenchmarkProfile& base = find_profile("x264");
  OwnedProfile one_phase("one_phase", base, {{1.3, 0.7, 2.0, 1.1}});
  OwnedProfile two_phase("two_phase", base,
                         {{1.3, 0.7, 2.0, 1.1}, {0.8, 1.4, 1.0, 0.6}});
  std::vector<BenchmarkProfile> variants;
  for (const BenchmarkProfile* shape :
       {&base, &one_phase.profile(), &two_phase.profile()}) {
    for (const double sigma :
         {0.0, -0.05, std::numeric_limits<double>::quiet_NaN(), 0.03, 0.6}) {
      BenchmarkProfile p = *shape;
      p.noise_sigma = sigma;
      variants.push_back(p);
      p.phases = {};  // and the same profile without any phase
      variants.push_back(p);
    }
  }
  for (const util::Isa isa : util::host_isas()) {
    Twins twins;
    std::uint64_t seed = 40;
    for (const BenchmarkProfile& p : variants) twins.add(p, ++seed, 0.3);
    for (int t = 0; t < 400; ++t) {
      twins.step_and_compare(kTick, isa, t);
      if (HasFailure()) FAIL() << "isa " << util::isa_name(isa);
    }
  }
}

TEST(DemandBank, SwapRowsMovesTheWholeState) {
  Twins twins;
  const auto profiles = builtin_profiles();
  for (std::size_t i = 0; i < 6; ++i) {
    twins.add(*profiles[i], 90 + i, 1.7 * static_cast<double>(i));
  }
  for (int t = 0; t < 600; ++t) {
    if (t % 97 == 13) {
      const auto a = static_cast<std::size_t>(t) % 6;
      const auto b = (a + 3) % 6;
      twins.bank().swap_rows(a, b);
      twins.swap_instances(a, b);
    }
    twins.step_and_compare(kTick, util::host_isa(), t);
    if (HasFailure()) FAIL();
  }
}

}  // namespace
}  // namespace cpm::workload
