// Fig. 11: budget curves -- actual chip power consumption vs. the specified
// power budget, for our scheme and for MaxBIPS. Our closed-loop scheme
// closely tracks the budget without exceeding it; MaxBIPS's open-loop
// table-driven selection always lands below the budget (with limited DVFS
// knobs a combination rarely sums to the set-point exactly).
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"
#include "util/parallel.h"

namespace {

struct Point {
  double avg_power_fraction = 0.0;
  double max_overshoot = 0.0;
};

}  // namespace

int main() {
  using namespace cpm;
  bench::header("Fig. 11", "budget curves: ours vs MaxBIPS");

  const std::vector<double> budgets{0.55, 0.65, 0.75, 0.80, 0.85, 0.95};
  const core::ManagerKind managers[] = {core::ManagerKind::kCpm,
                                        core::ManagerKind::kMaxBips};
  // One flat fan-out over the (manager, budget) cross product: every point
  // is an independent seeded simulation, and parallel_map keeps the results
  // index-ordered so the table is identical to a serial sweep.
  const auto points = util::parallel_map<Point>(
      2 * budgets.size(), [&budgets, &managers](std::size_t k) {
        core::SimulationConfig cfg = core::with_manager(
            core::default_config(), managers[k / budgets.size()]);
        cfg.budget_fraction = budgets[k % budgets.size()];
        core::Simulation sim(cfg);
        const core::SimulationResult res = sim.run(core::kDefaultDurationS);
        const core::ChipTrackingMetrics chip =
            core::chip_tracking_metrics(res.gpm_records);
        return Point{res.avg_chip_power_w / res.max_chip_power_w,
                     chip.max_overshoot};
      });
  const Point* ours = points.data();
  const Point* maxbips = points.data() + budgets.size();

  util::AsciiTable table({"budget (% max)", "ours: consumption (%)",
                          "ours: overshoot", "MaxBIPS: consumption (%)",
                          "MaxBIPS: overshoot"});
  bool ok = true;
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    table.add_row({util::AsciiTable::num(budgets[i] * 100, 0),
                   util::AsciiTable::num(ours[i].avg_power_fraction * 100, 1),
                   util::AsciiTable::pct(ours[i].max_overshoot),
                   util::AsciiTable::num(maxbips[i].avg_power_fraction * 100, 1),
                   util::AsciiTable::pct(maxbips[i].max_overshoot)});
    // Shape checks: ours tracks the budget closely; MaxBIPS sits below both
    // the budget and our consumption.
    if (maxbips[i].avg_power_fraction > budgets[i] * 1.02) ok = false;
    if (ours[i].avg_power_fraction < maxbips[i].avg_power_fraction - 0.02) {
      ok = false;
    }
  }
  table.print(std::cout);
  bench::note("paper: our curve hugs the budget; MaxBIPS is always below it");
  return ok ? 0 : 1;
}
