// Fig. 9: PIC-level tracking between two successive GPM invocations -- the
// 10 PIC invocations inside one GPM window, per island. The paper reports
// overshoots mostly within ~2 % (of chip power), settling within 5-6 PIC
// invocations, and near-zero steady-state error afterwards.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"

int main() {
  using namespace cpm;
  bench::header("Fig. 9", "PIC tracking between two GPM invocations");

  core::Simulation sim(core::default_config(0.8));
  const core::SimulationResult res = bench::checked_run(sim, core::kDefaultDurationS);

  // Pick a mid-run GPM window (skip warmup).
  const std::size_t window = 6;
  const std::size_t pics_per_gpm = 10;
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<double> target, actual;
    std::size_t seen = 0;
    for (const auto& rec : res.pic_records) {
      if (rec.island != i) continue;
      const std::size_t idx = seen++;
      if (idx < window * pics_per_gpm || idx >= (window + 1) * pics_per_gpm) {
        continue;
      }
      target.push_back(rec.target_w / res.max_chip_power_w * 100.0);
      actual.push_back(rec.actual_w / res.max_chip_power_w * 100.0);
    }
    std::printf("\n  island %zu (%% of max chip power):\n", i + 1);
    bench::series("target", target, 2);
    bench::series("actual", actual, 2);
  }

  // Aggregate PIC robustness metrics over the whole run.
  std::printf("\n  robustness over the full run:\n");
  util::AsciiTable table({"island", "max overshoot (rel)",
                          "mean settling (PIC inv)", "worst settling",
                          "steady-state err"});
  for (std::size_t i = 0; i < 4; ++i) {
    const core::IslandTrackingMetrics m =
        core::island_tracking_metrics(res.pic_records, i);
    table.add_row({std::to_string(i + 1), util::AsciiTable::pct(m.max_overshoot),
                   util::AsciiTable::num(m.mean_settling_time, 1),
                   std::to_string(m.worst_settling_time),
                   util::AsciiTable::pct(m.steady_state_error)});
  }
  table.print(std::cout);
  bench::note("paper: settles within 5-6 PIC invocations, near-zero steady error");
  return 0;
}
