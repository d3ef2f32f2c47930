// Fig. 14: performance degradation over time with a 100 % power budget.
// With the full budget available the controllers should be almost invisible:
// the paper reports an average degradation of ~0.9 % (max ~2.2 %), caused
// only by transient mis-predictions of the provisioning policy.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"
#include "util/stats.h"

int main() {
  using namespace cpm;
  bench::header("Fig. 14", "degradation over time at a 100% budget");

  const core::ManagedVsBaseline mb =
      core::run_with_baseline(core::default_config(1.0), core::kDefaultDurationS);
  const std::vector<double> series =
      core::degradation_over_time(mb.managed, mb.baseline);

  std::vector<double> pct;
  util::RunningStats stats;
  for (std::size_t k = 2; k < series.size(); ++k) {  // skip warmup windows
    pct.push_back(series[k] * 100.0);
    stats.add(series[k] * 100.0);
  }
  bench::series("degradation (%)", pct, 2);
  std::printf("\n  average %.2f%%   max %.2f%%   (paper: avg ~0.9%%, max ~2.2%%)\n",
              stats.mean(), stats.max());
  std::printf("  whole-run instruction-count degradation: %.2f%%\n",
              mb.degradation * 100.0);
  return stats.mean() < 3.0 ? 0 : 1;
}
