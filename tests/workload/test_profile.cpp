#include "workload/profile.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace cpm::workload {
namespace {

TEST(Profiles, EightParsecBenchmarks) {
  const auto profiles = parsec_profiles();
  ASSERT_EQ(profiles.size(), 8u);
  std::set<std::string> names;
  for (const auto& p : profiles) names.insert(std::string(p.name));
  for (const char* expected :
       {"blackscholes", "bodytrack", "facesim", "freqmine", "x264", "vips",
        "streamcluster", "canneal"}) {
    EXPECT_TRUE(names.count(expected)) << expected;
  }
}

TEST(Profiles, FourSpecBenchmarks) {
  const auto profiles = spec_profiles();
  ASSERT_EQ(profiles.size(), 4u);
  for (const auto& p : profiles) {
    EXPECT_TRUE(p.cpu_bound()) << p.name;  // thermal study uses cpu-bound only
  }
}

TEST(Profiles, ClassesMatchTableIII) {
  // Paper Table III: C = bschls, btrack, fmine, x264; M = sclust, fsim,
  // canneal, vips.
  for (const char* name : {"bschls", "btrack", "fmine", "x264"}) {
    EXPECT_TRUE(find_profile(name).cpu_bound()) << name;
  }
  for (const char* name : {"sclust", "fsim", "canneal", "vips"}) {
    EXPECT_FALSE(find_profile(name).cpu_bound()) << name;
  }
}

TEST(Profiles, MemoryBoundHaveLargerStalls) {
  double max_cpu_stall = 0.0, min_mem_stall = 1e9;
  for (const auto& p : parsec_profiles()) {
    if (p.cpu_bound()) {
      max_cpu_stall = std::max(max_cpu_stall, p.mem_stall_ns);
    } else {
      min_mem_stall = std::min(min_mem_stall, p.mem_stall_ns);
    }
  }
  EXPECT_LT(max_cpu_stall, min_mem_stall);
}

TEST(Profiles, LookupByShortAndFullName) {
  EXPECT_EQ(find_profile("bschls").name, "blackscholes");
  EXPECT_EQ(find_profile("blackscholes").short_name, "bschls");
  EXPECT_EQ(find_profile("x264").name, "x264");
  EXPECT_EQ(find_profile("mesa").name, "mesa");
}

TEST(Profiles, UnknownNameThrows) {
  EXPECT_THROW(find_profile("doom"), std::invalid_argument);
  EXPECT_THROW(find_profile(""), std::invalid_argument);
}

TEST(Profiles, PhysicallySensibleParameters) {
  auto check = [](const BenchmarkProfile& p) {
    EXPECT_GT(p.cpi_base, 0.0) << p.name;
    EXPECT_GE(p.mem_stall_ns, 0.0) << p.name;
    EXPECT_GT(p.activity_active, p.activity_idle) << p.name;
    EXPECT_GT(p.ceff_scale, 0.0) << p.name;
    EXPECT_GE(p.noise_sigma, 0.0) << p.name;
    EXPECT_FALSE(p.phases.empty()) << p.name;
    for (const Phase& ph : p.phases) {
      EXPECT_GT(ph.duration_ms, 0.0) << p.name;
      EXPECT_GT(ph.cpi_mult, 0.0) << p.name;
      EXPECT_GT(ph.mem_mult, 0.0) << p.name;
    }
  };
  for (const auto& p : parsec_profiles()) check(p);
  for (const auto& p : spec_profiles()) check(p);
}

TEST(InstructionMix, UnknownThrows) {
  EXPECT_THROW(instruction_mix("nonexistent"), std::invalid_argument);
}

TEST(InstructionMix, CoversEveryProfile) {
  for (const auto suite :
       {parsec_profiles(), spec_profiles(), extra_parsec_profiles()}) {
    for (const auto& p : suite) {
      EXPECT_NO_THROW(instruction_mix(p.name)) << p.name;
    }
  }
}

TEST(InstructionMix, MixesSumToOne) {
  for (const auto suite :
       {parsec_profiles(), spec_profiles(), extra_parsec_profiles()}) {
    for (const auto& p : suite) {
      const InstructionMix& m = instruction_mix(p.name);
      EXPECT_NEAR(m.int_alu + m.fp_alu + m.load + m.store + m.branch, 1.0,
                  1e-9)
          << p.name;
    }
  }
}

}  // namespace
}  // namespace cpm::workload
