// Extension: runtime thread migration, motivated by Fig. 16 -- the paper
// shows homogeneous islands (Mix-2) degrade less under per-island DVFS than
// mixed islands (Mix-1), but leaves the grouping static. The migration
// advisor reaches the good grouping at runtime: starting from Mix-1, it
// swaps threads until islands are utilization-homogeneous, and the
// degradation approaches the statically-well-grouped Mix-2 run.
#include <cstdio>

#include "bench_util.h"
#include "core/experiment.h"
#include "workload/mixes.h"

int main() {
  using namespace cpm;
  bench::header("Extension", "runtime migration toward homogeneous islands");

  const double duration = core::kDefaultDurationS;

  const core::ManagedVsBaseline mix1 =
      core::run_with_baseline(core::default_config(0.8, 21), duration);

  core::SimulationConfig mix2_cfg = core::default_config(0.8, 21);
  mix2_cfg.mix = workload::mix2();
  const core::ManagedVsBaseline mix2 = core::run_with_baseline(mix2_cfg, duration);

  core::SimulationConfig migr_cfg = core::default_config(0.8, 21);
  migr_cfg.enable_migration = true;
  const core::ManagedVsBaseline migr = core::run_with_baseline(migr_cfg, duration);

  util::AsciiTable table({"configuration", "degradation", "migrations"});
  table.add_row({"Mix-1 static (mixed islands)",
                 util::AsciiTable::pct(mix1.degradation), "0"});
  table.add_row({"Mix-2 static (homogeneous islands)",
                 util::AsciiTable::pct(mix2.degradation), "0"});
  table.add_row({"Mix-1 + runtime migration",
                 util::AsciiTable::pct(migr.degradation),
                 std::to_string(migr.managed.migrations)});
  table.print(std::cout);
  bench::note("the advisor converges in a handful of swaps and lands the");
  bench::note("dynamic run between Mix-1 and the statically optimal Mix-2");

  const bool ok = migr.managed.migrations >= 2 &&
                  migr.degradation <= mix1.degradation + 0.01;
  return ok ? 0 : 1;
}
