// Fig. 10: tracking the chip-wide power budget. The sum of the island powers
// is compared against the 80 % budget over time; the paper reports over- and
// undershoot mostly within 4 % of the budget.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"

int main() {
  using namespace cpm;
  bench::header("Fig. 10", "tracking the chip-wide power budget (80%)");

  core::Simulation sim(core::default_config(0.8));
  const core::SimulationResult res = sim.run(core::kDefaultDurationS);

  std::vector<double> actual_pct, budget_pct;
  for (const auto& g : res.gpm_records) {
    actual_pct.push_back(g.chip_actual_w / res.max_chip_power_w * 100.0);
    budget_pct.push_back(g.chip_budget_w / res.max_chip_power_w * 100.0);
  }
  bench::series("P_actual (%)", actual_pct);
  bench::series("P_target (%)", budget_pct);

  const core::ChipTrackingMetrics m = core::chip_tracking_metrics(res.gpm_records);
  std::printf(
      "\n  max overshoot  %.2f%%\n  max undershoot %.2f%%\n"
      "  mean |error|   %.2f%%\n  mean power     %.1f W (%.1f%% of max)\n",
      m.max_overshoot * 100.0, m.max_undershoot * 100.0,
      m.mean_abs_error * 100.0, m.mean_power_w,
      m.mean_power_w / res.max_chip_power_w * 100.0);
  bench::note("paper: overshoot/undershoot mostly within 4% of the budget");
  return m.max_overshoot < 0.08 ? 0 : 1;
}
