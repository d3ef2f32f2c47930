// Fig. 8: per-island target vs. actual power over 12 GPM invocations (each
// containing 10 PIC invocations) on the default 8-core configuration. Shows
// the PICs tracking the GPM-provisioned, time-varying targets.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"

int main() {
  using namespace cpm;
  bench::header("Fig. 8", "per-island target vs actual power over time");

  core::Simulation sim(core::default_config(0.8));
  const core::SimulationResult res = sim.run(0.12 * 0.5 + 0.06);  // 12 windows

  const std::size_t pics_per_gpm = 10;
  const std::size_t windows = 12;
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<double> target, actual;
    std::size_t seen = 0;
    for (const auto& rec : res.pic_records) {
      if (rec.island != i) continue;
      if (seen++ >= windows * pics_per_gpm) break;
      target.push_back(rec.target_w / res.max_chip_power_w * 100.0);
      actual.push_back(rec.actual_w / res.max_chip_power_w * 100.0);
    }
    std::printf("\n  island %zu (%% of max chip power, %zu PIC intervals):\n",
                i + 1, target.size());
    bench::series("target", target);
    bench::series("actual", actual);

    const core::IslandTrackingMetrics m =
        core::island_tracking_metrics(res.pic_records, i);
    std::printf(
        "  -> max overshoot %.1f%%, mean settling %.1f PIC inv., "
        "steady-state err %.1f%%\n",
        m.max_overshoot * 100.0, m.mean_settling_time,
        m.steady_state_error * 100.0);
  }
  return 0;
}
