// Fig. 7: dynamic power provisioning across four islands under an 80 % chip
// budget (Mix-1). The GPM captures each island's time-varying demand and
// provisions the budget so the shares always sum to the target.
#include <iostream>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"

int main() {
  using namespace cpm;
  bench::header("Fig. 7", "GPM power provisioning across islands (80% budget)");

  core::Simulation sim(core::default_config(0.8));
  const core::SimulationResult res = sim.run(core::kDefaultDurationS);

  // Per-island actual power as a percentage of max chip power, one column
  // per GPM interval (the paper plots ~20 intervals).
  const std::size_t shown = std::min<std::size_t>(20, res.gpm_records.size());
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<double> pct;
    for (std::size_t k = 0; k < shown; ++k) {
      pct.push_back(res.gpm_records[k].island_actual_w[i] /
                    res.max_chip_power_w * 100.0);
    }
    bench::series("island " + std::to_string(i + 1) + " actual", pct);
  }
  std::vector<double> total;
  for (std::size_t k = 0; k < shown; ++k) {
    total.push_back(res.gpm_records[k].chip_actual_w / res.max_chip_power_w *
                    100.0);
  }
  bench::series("chip total", total);

  // Demand variability summary (the paper notes islands moving in the
  // ~12-26 % band while the sum stays at the budget).
  for (std::size_t i = 0; i < 4; ++i) {
    util::RunningStats s;
    for (const auto& g : res.gpm_records) {
      s.add(g.island_actual_w[i] / res.max_chip_power_w * 100.0);
    }
    std::printf("  island %zu share: min %.1f%%  mean %.1f%%  max %.1f%%\n",
                i + 1, s.min(), s.mean(), s.max());
  }
  std::printf("  chip mean: %.1f%% of max (budget 80%%)\n",
              res.avg_chip_power_w / res.max_chip_power_w * 100.0);
  return 0;
}
