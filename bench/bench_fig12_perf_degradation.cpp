// Fig. 12: average performance degradation under different chip-wide power
// budgets, versus the unmanaged case (all CPUs at maximum frequency). The
// paper reports ~4 % degradation at the 80 % budget, rising as the budget
// tightens, while the unmanaged chip overshoots a tight budget by 30-40 %.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"

int main() {
  using namespace cpm;
  bench::header("Fig. 12", "performance degradation vs power budget");

  const std::vector<double> budgets{0.55, 0.65, 0.75, 0.80, 0.90, 1.0};
  // budget_sweep_full fans the sweep points out via util::parallel_map and
  // returns the shared NoDVFS reference, so the unmanaged-overshoot framing
  // below reuses it instead of running another serial simulation.
  const core::BudgetSweepResult sweep = core::budget_sweep_full(
      core::default_config(), budgets, core::kDefaultDurationS);
  const auto& points = sweep.points;

  util::AsciiTable table(
      {"budget (% max)", "avg power (% max)", "perf degradation"});
  for (const auto& p : points) {
    table.add_row({util::AsciiTable::num(p.budget_fraction * 100, 0),
                   util::AsciiTable::num(p.avg_power_fraction * 100, 1),
                   util::AsciiTable::pct(p.degradation)});
  }
  table.print(std::cout);

  // Unmanaged overshoot framing, from the sweep's own NoDVFS reference
  // (same config: default budget fraction 0.8, manager NoDVFS).
  const core::ChipTrackingMetrics m =
      core::chip_tracking_metrics(sweep.baseline.gpm_records);
  std::printf(
      "  unmanaged (NoDVFS) vs an 80%% budget: max overshoot %.1f%%\n",
      m.max_overshoot * 100.0);
  bench::note("paper: ~4% degradation at the 80% budget; unmanaged overshoots 30-40%");

  // Shape check: degradation decreases as budgets loosen.
  bool monotone_ok = points.front().degradation > points.back().degradation;
  return monotone_ok ? 0 : 1;
}
