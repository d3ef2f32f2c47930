// Fig. 16: sensitivity to the application mix. Mix-2 groups two CPU-bound or
// two memory-bound applications per island (homogeneous islands); lowering
// the frequency of an all-memory-bound island barely hurts, so Mix-2's
// degradation is lower than Mix-1's (where every island couples a CPU-bound
// thread to its memory-bound neighbour's throttling).
#include <iostream>

#include "bench_util.h"
#include "core/experiment.h"
#include "workload/mixes.h"

int main() {
  using namespace cpm;
  bench::header("Fig. 16", "sensitivity to the application mix (80% budget)");

  util::AsciiTable table({"mix", "grouping", "perf degradation"});
  double deg_mix1 = 0.0, deg_mix2 = 0.0;
  {
    const core::ManagedVsBaseline mb =
        core::run_with_baseline(core::default_config(0.8),
                                core::kDefaultDurationS);
    deg_mix1 = mb.degradation;
    table.add_row({"Mix-1", "each island: 1 CPU-bound + 1 memory-bound",
                   util::AsciiTable::pct(mb.degradation)});
  }
  {
    core::SimulationConfig cfg = core::default_config(0.8);
    cfg.mix = workload::mix2();
    const core::ManagedVsBaseline mb =
        core::run_with_baseline(cfg, core::kDefaultDurationS);
    deg_mix2 = mb.degradation;
    table.add_row({"Mix-2", "homogeneous islands (C,C / M,M)",
                   util::AsciiTable::pct(mb.degradation)});
  }
  table.print(std::cout);
  bench::note("paper: Mix-2's degradation is lower than Mix-1's");
  return deg_mix2 <= deg_mix1 + 0.01 ? 0 : 1;
}
