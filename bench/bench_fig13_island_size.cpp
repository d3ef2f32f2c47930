// Fig. 13: performance degradation vs. island size (1, 2, 4 cores per
// island) at the same 80 % budget, over the same 8 Mix-1 applications.
// Degradation grows with island size (coarser actuation couples more
// co-scheduled threads); the 1-core-per-island case corresponds to the
// per-core architecture MaxBIPS targets, where the two schemes are similar
// (paper: ours 3.75 % better there).
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"
#include "util/parallel.h"

int main() {
  using namespace cpm;
  bench::header("Fig. 13", "performance degradation vs island size (80% budget)");

  // Each (island size, scheme) cell is an independent seeded run: fan the
  // whole grid out at once. Index order keeps the table identical to the
  // serial sweep.
  const std::vector<std::size_t> sizes{1, 2, 4};
  const auto degradations = util::parallel_map<double>(
      2 * sizes.size(), [&sizes](std::size_t k) {
        core::SimulationConfig cfg =
            core::island_size_config(sizes[k / 2], 0.8);
        if (k % 2 == 1) {
          cfg = core::with_manager(cfg, core::ManagerKind::kMaxBips);
        }
        return core::run_with_baseline(cfg, core::kDefaultDurationS)
            .degradation;
      });

  util::AsciiTable table({"cores/island", "islands", "ours: degradation",
                          "MaxBIPS: degradation"});
  std::vector<double> ours_deg, maxbips_deg;
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    ours_deg.push_back(degradations[2 * s]);
    maxbips_deg.push_back(degradations[2 * s + 1]);
    table.add_row({std::to_string(sizes[s]), std::to_string(8 / sizes[s]),
                   util::AsciiTable::pct(ours_deg.back()),
                   util::AsciiTable::pct(maxbips_deg.back())});
  }
  table.print(std::cout);
  bench::note("paper: degradation grows with cores/island; at 1 core/island the");
  bench::note("schemes are comparable, with multi-core islands ours wins");

  // Shape checks.
  const bool grows = ours_deg.back() >= ours_deg.front() - 0.01;
  const bool ours_wins_multicore = ours_deg[2] <= maxbips_deg[2] + 0.01;
  return (grows && ours_wins_multicore) ? 0 : 1;
}
