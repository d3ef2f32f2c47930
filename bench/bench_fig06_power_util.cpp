// Fig. 6: correlation between variations in power consumption and processor
// utilization, one regression per benchmark. The paper reports per-benchmark
// slopes in roughly the 2.3-4.5 range with an average R^2 of ~0.96 and uses
// the fitted line as the PIC's sensor/transducer.
//
// Methodology: run each benchmark alone on one core at the reference (top)
// DVFS level and regress interval power against interval utilization. (Power
// samples across other levels are normalized to the reference level by the
// known V^2 f ratio, as the transducer does.)
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "power/model.h"
#include "power/sensor.h"
#include "sim/chip.h"
#include "util/rng.h"

int main() {
  using namespace cpm;
  bench::header("Fig. 6", "power vs. utilization regression per benchmark");

  util::AsciiTable table({"benchmark", "k1 (slope, W/util)", "k0 (W)", "R^2"});
  double r2_sum = 0.0;
  std::size_t count = 0;

  for (const auto& profile : workload::parsec_profiles()) {
    // Single-island, single... the minimal chip is 1 island x 1 core.
    sim::CmpConfig cfg = sim::CmpConfig::default_8core();
    cfg.num_islands = 1;
    cfg.cores_per_island = 1;
    workload::Mix mix;
    mix.name = "solo";
    mix.islands.push_back({&profile});

    sim::Chip chip(cfg, mix, 42);
    power::PowerModel model(cfg);
    util::Xoshiro256pp rng(9);

    const double dt = cfg.tick_seconds();
    const sim::DvfsPoint ref = cfg.dvfs.level(cfg.dvfs.max_level());
    const double ref_fv2 = ref.voltage * ref.voltage * ref.freq_ghz;

    std::vector<double> utils, powers;
    for (std::size_t k = 0; k < 600; ++k) {
      double u = 0.0, p = 0.0;
      for (std::size_t t = 0; t < cfg.ticks_per_pic_interval; ++t) {
        const sim::ChipTick tick = chip.step(dt);
        const auto op = chip.island(0).operating_point();
        u += tick.islands[0].utilization;
        const double fv2 = op.voltage * op.voltage * op.freq_ghz;
        p += model.core_power(tick.islands[0].cores[0], op, 0, 55.0).total() *
             ref_fv2 / fv2;
      }
      const double ticks = static_cast<double>(cfg.ticks_per_pic_interval);
      utils.push_back(u / ticks);
      powers.push_back(p / ticks);
      chip.island(0).actuator().set_level(rng.uniform_int(8));
    }

    const power::TransducerModel fit =
        power::calibrate_transducer(utils, powers);
    table.add_row({std::string(profile.short_name),
                   util::AsciiTable::num(fit.k1, 3),
                   util::AsciiTable::num(fit.k0, 3),
                   util::AsciiTable::num(fit.r_squared, 3)});
    r2_sum += fit.r_squared;
    ++count;
  }
  table.print(std::cout);
  const double avg_r2 = r2_sum / static_cast<double>(count);
  std::printf("  average R^2 = %.3f  (paper: ~0.96)\n", avg_r2);
  return avg_r2 > 0.85 ? 0 : 1;
}
