// Sec. IV-B (final figures): variation-aware power provisioning under
// intra-die leakage variation. Islands 1-3 leak at 1.2x / 1.5x / 2.0x of
// island 4. The greedy EPI hill-climbing policy parks leaky islands at lower
// V/f levels, trading a small throughput loss for a larger improvement in
// the power/throughput ratio relative to the performance-aware policy.
#include <iostream>

#include "bench_util.h"
#include "core/experiment.h"

int main() {
  using namespace cpm;
  bench::header("Sec. IV-B",
                "variation-aware provisioning (leakage 1.2x/1.5x/2.0x/1.0x)");

  const double duration = core::kDefaultDurationS;
  const core::SimulationConfig perf_cfg =
      core::variation_config(core::PolicyKind::kPerformance, 0.8);
  const core::SimulationConfig var_cfg =
      core::variation_config(core::PolicyKind::kVariation, 0.8);

  core::Simulation perf_sim(perf_cfg);
  core::Simulation var_sim(var_cfg);
  const core::SimulationResult perf = perf_sim.run(duration);
  const core::SimulationResult var = var_sim.run(duration);

  util::AsciiTable table({"island", "leak mult", "throughput degradation",
                          "power/throughput improvement"});
  double total_ppt_gain = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    const double perf_bips = perf.island_avg_bips[i];
    const double var_bips = var.island_avg_bips[i];
    const double perf_ppt =
        perf.island_energy_j[i] / perf.island_instructions[i];
    const double var_ppt = var.island_energy_j[i] / var.island_instructions[i];
    const double deg = 1.0 - var_bips / perf_bips;
    const double gain = 1.0 - var_ppt / perf_ppt;
    total_ppt_gain += gain;
    const double mults[] = {1.2, 1.5, 2.0, 1.0};
    table.add_row({std::to_string(i + 1), util::AsciiTable::num(mults[i], 1),
                   util::AsciiTable::pct(deg), util::AsciiTable::pct(gain)});
  }
  table.print(std::cout);

  const double chip_deg = 1.0 - var.avg_chip_bips / perf.avg_chip_bips;
  const double chip_ppt_perf =
      perf.avg_chip_power_w / perf.avg_chip_bips;
  const double chip_ppt_var = var.avg_chip_power_w / var.avg_chip_bips;
  const double chip_gain = 1.0 - chip_ppt_var / chip_ppt_perf;
  std::printf("  chip: throughput degradation %.1f%%, power/throughput improvement %.1f%%\n",
              chip_deg * 100.0, chip_gain * 100.0);
  bench::note("paper: small per-island throughput loss buys a larger");
  bench::note("energy-per-instruction improvement on the leaky islands");

  // Shape check: the variation-aware policy improves the chip-level
  // power/throughput ratio.
  return chip_gain > 0.0 ? 0 : 1;
}
