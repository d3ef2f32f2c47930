// Fig. 17: sensitivity to the GPM/PIC invocation intervals, for 1, 2 and 4
// cores per island. (x, y) = (GPM interval, PIC interval). The paper
// compares the base (5 ms, 0.5 ms) cadence against a degraded (5 ms, 5 ms)
// cadence -- one PIC invocation per GPM window -- and finds the fine-grained
// PIC yields lower degradation thanks to more accurate within-window
// correction.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"
#include "util/parallel.h"

namespace {

struct Cell {
  double degradation = 0.0;
  double overshoot = 0.0;
};

}  // namespace

int main() {
  using namespace cpm;
  bench::header("Fig. 17",
                "sensitivity to (GPM interval, PIC interval) per island size");

  // 3 island sizes x 2 cadences, each an independent run_with_baseline:
  // fan the grid out, assemble the table in index order (identical to the
  // serial sweep).
  const std::vector<std::size_t> sizes{1, 2, 4};
  const auto cells = util::parallel_map<Cell>(
      2 * sizes.size(), [&sizes](std::size_t k) {
        const bool fine = k % 2 == 0;
        core::SimulationConfig cfg =
            core::island_size_config(sizes[k / 2], 0.8);
        if (!fine) {
          cfg.cmp.pic_interval_s = 5e-3;  // PIC as slow as the GPM
          cfg.cmp.ticks_per_pic_interval = 50;  // keep the 0.1 ms tick
        }
        const core::ManagedVsBaseline mb =
            core::run_with_baseline(cfg, core::kDefaultDurationS);
        return Cell{
            mb.degradation,
            core::chip_tracking_metrics(mb.managed.gpm_records).max_overshoot};
      });

  util::AsciiTable table({"cores/island", "(GPM, PIC) ms", "degradation",
                          "chip overshoot"});
  bool ok = true;
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    const Cell& fine = cells[2 * s];
    const Cell& coarse = cells[2 * s + 1];
    table.add_row({std::to_string(sizes[s]), "(5, 0.5)",
                   util::AsciiTable::pct(fine.degradation),
                   util::AsciiTable::pct(fine.overshoot)});
    table.add_row({std::to_string(sizes[s]), "(5, 5)",
                   util::AsciiTable::pct(coarse.degradation),
                   util::AsciiTable::pct(coarse.overshoot)});
    if (fine.degradation > coarse.degradation + 0.02) ok = false;
  }
  table.print(std::cout);
  bench::note("paper: the (5, 0.5) cadence degrades less than (5, 5)");
  return ok ? 0 : 1;
}
