// Golden output digests: the only check on absolute output values. Every
// fuzz differential compares two paths of one build, so a change that moves
// calibration or the plant tick on both sides passes them all; this test
// pins the numbers themselves. Each config's calibration, max chip power and
// every record + aggregate of a short run fold into one FNV-1a digest over
// the exact bits of each double. A refactor that claims bit-identical output
// must leave every literal below unchanged.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/simulation.h"

namespace cpm::core {
namespace {

constexpr double kRunSeconds = 0.05;  // 10 GPM windows

class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      state_ ^= (word >> (8 * byte)) & 0xFFU;
      state_ *= 1099511628211ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(const std::vector<double>& values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (const double v : values) add(v);
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 14695981039346656037ULL;
};

void fold(Digest& d, const CalibrationResult& cal) {
  d.add(static_cast<std::uint64_t>(cal.transducers.size()));
  for (const auto& t : cal.transducers) {
    d.add(t.k1);
    d.add(t.k0);
    d.add(t.r_squared);
  }
  d.add(cal.plant_gains);
  d.add(cal.plant_gain_r2);
  d.add(cal.island_peak_power_w);
  d.add(cal.island_fmax_bips);
  d.add(cal.island_fmax_leakage_w);
}

void fold(Digest& d, const SimulationResult& res) {
  d.add(static_cast<std::uint64_t>(res.pic_records.size()));
  for (const PicIntervalRecord& r : res.pic_records) {
    d.add(r.time_s);
    d.add(static_cast<std::uint64_t>(r.island));
    d.add(r.target_w);
    d.add(r.sensed_w);
    d.add(r.actual_w);
    d.add(r.utilization);
    d.add(r.bips);
    d.add(r.freq_ghz);
    d.add(static_cast<std::uint64_t>(r.dvfs_level));
  }
  d.add(static_cast<std::uint64_t>(res.gpm_records.size()));
  for (const GpmIntervalRecord& r : res.gpm_records) {
    d.add(r.time_s);
    d.add(r.island_alloc_w);
    d.add(r.island_actual_w);
    d.add(r.island_bips);
    d.add(r.chip_actual_w);
    d.add(r.chip_budget_w);
    d.add(r.chip_bips);
    d.add(r.max_temp_c);
  }
  d.add(static_cast<std::uint64_t>(res.pic_records_seen));
  d.add(static_cast<std::uint64_t>(res.gpm_records_seen));
  d.add(res.duration_s);
  d.add(res.max_chip_power_w);
  d.add(res.budget_w);
  d.add(res.total_instructions);
  d.add(res.avg_chip_power_w);
  d.add(res.avg_chip_bips);
  d.add(res.hotspot_fraction);
  d.add(res.dvfs_transitions);
  d.add(static_cast<std::uint64_t>(res.migrations));
  fold(d, res.calibration);
  d.add(res.island_instructions);
  d.add(res.island_energy_j);
  d.add(res.island_avg_bips);
  for (const auto& residency : res.island_level_residency) d.add(residency);
}

std::uint64_t digest_of(const SimulationConfig& config) {
  Simulation sim(config);
  Digest d;
  fold(d, sim.calibration());
  d.add(sim.max_chip_power().value());
  fold(d, sim.run(kRunSeconds));
  return d.value();
}

struct GoldenCase {
  const char* name;
  SimulationConfig config;
  std::uint64_t expected;
};

std::vector<GoldenCase> golden_cases() {
  const SimulationConfig base = default_config();
  SimulationConfig maxbips_dynamic = with_manager(base, ManagerKind::kMaxBips);
  maxbips_dynamic.maxbips_dynamic = true;
  SimulationConfig no_cal_time = base;
  no_cal_time.calibration_seconds = 0.0;
  SimulationConfig adaptive = base;
  adaptive.adaptive_transducer = true;
  adaptive.sensor_noise_sigma = 0.02;
  SimulationConfig migration = base;
  migration.enable_migration = true;
  SimulationConfig schedule = base;
  schedule.budget_schedule = {{0.02, 0.6}, {0.035, 0.9}};
  return {
      {"default", base, 0x1734ef61e3add27bULL},
      {"thermal", thermal_config(PolicyKind::kThermal), 0x479c087c8383520dULL},
      {"variation", variation_config(PolicyKind::kVariation),
       0xbe36e3a6da444747ULL},
      {"scaled_16", scaled_config(16), 0x71a38fffb501bd36ULL},
      {"scaled_64", scaled_config(64), 0x5d6a3316dc7661caULL},
      {"island_size_1", island_size_config(1), 0xa61154deab28b5a0ULL},
      {"island_size_4", island_size_config(4), 0x5c4e651084632149ULL},
      {"maxbips_static", with_manager(base, ManagerKind::kMaxBips),
       0x5966861700b49ed2ULL},
      {"maxbips_dynamic", maxbips_dynamic, 0x10ee7193df4aa0f6ULL},
      {"nodvfs", with_manager(base, ManagerKind::kNoDvfs),
       0x4e12aae5f1fa5123ULL},
      {"calibration_seconds_0", no_cal_time, 0x4a7958ca433729f6ULL},
      {"adaptive_noise", adaptive, 0x9a9249b3640f6463ULL},
      {"migration", migration, 0x90ddd21130946631ULL},
      {"budget_schedule", schedule, 0xa9e7cb94031fd7b3ULL},
      {"maxbips_schedule", with_manager(schedule, ManagerKind::kMaxBips),
       0x36432820e63509bcULL},
  };
}

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(value));
  return buf;
}

TEST(GoldenDigest, OutputMatchesRecordedDigests) {
  for (const GoldenCase& c : golden_cases()) {
    const std::uint64_t actual = digest_of(c.config);
    EXPECT_EQ(actual, c.expected)
        << c.name << ": expected " << hex(c.expected) << ", actual "
        << hex(actual);
  }
}

}  // namespace
}  // namespace cpm::core
