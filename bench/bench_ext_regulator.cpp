// Extension: quantifying the paper's Sec. II-B architectural argument --
// "with the projected scaling of CMPs to hundreds of cores, it will be
// prohibitively expensive to provide a per-core DVFS controller on chip".
// For 8..256-core chips, compare the on-chip voltage-regulator loss and die
// area of per-core domains against 2-, 4- and 8-core islands.
#include <cstdio>

#include "bench_util.h"
#include "power/regulator.h"

int main() {
  using namespace cpm;
  bench::header("Extension",
                "regulator cost of DVFS granularity (per-core vs islands)");

  const double load_per_core = 5.0;  // typical draw, W
  const double peak_per_core = 9.0;  // regulator sizing, W

  util::AsciiTable table({"cores", "cores/domain", "domains", "loss (W)",
                          "overhead", "area (mm^2)"});
  bool ok = true;
  for (const std::size_t cores : {8ul, 32ul, 128ul, 256ul}) {
    double prev_overhead = 1e9;
    for (const std::size_t cpd : {1ul, 2ul, 4ul, 8ul}) {
      if (cpd > cores) continue;
      const power::GranularityCost c =
          power::dvfs_granularity_cost(cores, cpd, units::Watts{load_per_core},
                                       units::Watts{peak_per_core});
      table.add_row({std::to_string(cores), std::to_string(cpd),
                     std::to_string(c.domains),
                     util::AsciiTable::num(c.regulator_loss_w, 1),
                     util::AsciiTable::pct(c.overhead_fraction, 1),
                     util::AsciiTable::num(c.regulator_area_mm2, 1)});
      if (c.overhead_fraction > prev_overhead + 1e-9) ok = false;
      prev_overhead = c.overhead_fraction;
    }
  }
  table.print(std::cout);
  bench::note("islands amortize each regulator's fixed losses and area floor;");
  bench::note("at hundreds of cores, per-core regulation pays for itself in");
  bench::note("conversion losses alone -- the paper's motivation for per-island DVFS");
  return ok ? 0 : 1;
}
