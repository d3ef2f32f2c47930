// Fig. 18: thermal-aware power provisioning on an 8-core CMP (1 core per
// island) running CPU-bound applications (mesa, bzip, gcc, sixtrack x2):
//  (a) the core layout / application placement,
//  (b) performance degradation of the thermal-aware policy vs the
//      performance-aware policy (thermal pays a performance premium),
//  (c) the fraction of GPM intervals in which the performance-aware policy
//      violates the thermal constraints (the thermal-aware policy: zero).
#include <iostream>

#include "bench_util.h"
#include "core/experiment.h"

int main() {
  using namespace cpm;
  bench::header("Fig. 18a", "8-core layout for the thermal study");
  std::cout << "  +------+------+------+----------+\n"
               "  | mesa | bzip | gcc  | sixtrack |   cores 1-4\n"
               "  +------+------+------+----------+\n"
               "  | mesa | bzip | gcc  | sixtrack |   cores 5-8\n"
               "  +------+------+------+----------+\n";

  const double duration = core::kDefaultDurationS;

  // Performance-aware run (audited against the thermal constraints).
  const core::SimulationConfig perf_cfg =
      core::thermal_config(core::PolicyKind::kPerformance, 0.8);
  const core::ManagedVsBaseline perf = core::run_with_baseline(perf_cfg, duration);

  // Thermal-aware run.
  const core::SimulationConfig thermal_cfg =
      core::thermal_config(core::PolicyKind::kThermal, 0.8);
  const core::ManagedVsBaseline thermal =
      core::run_with_baseline(thermal_cfg, duration);

  bench::header("Fig. 18b", "performance degradation (vs NoDVFS)");
  util::AsciiTable table({"policy", "degradation", "hotspot time fraction"});
  table.add_row({"performance-aware", util::AsciiTable::pct(perf.degradation),
                 util::AsciiTable::pct(perf.managed.hotspot_fraction)});
  table.add_row({"thermal-aware", util::AsciiTable::pct(thermal.degradation),
                 util::AsciiTable::pct(thermal.managed.hotspot_fraction)});
  table.print(std::cout);
  bench::note("paper: thermal-aware incurs more degradation than perf-aware");

  bench::header("Fig. 18c", "thermal-constraint violations per policy");
  core::ThermalConstraints cons;
  cons.adjacent_pairs = core::island_adjacency(core::make_floorplan(8), 8, 1);
  auto audit = [&](const core::SimulationResult& res) {
    core::ThermalConstraintTracker tracker(cons, 8);
    for (const auto& g : res.gpm_records) {
      tracker.record(g.island_alloc_w, units::Watts{res.budget_w});
    }
    return tracker.violation_fraction();
  };
  const double perf_violations = audit(perf.managed);
  const double thermal_violations = audit(thermal.managed);
  std::printf("  performance-aware: %.1f%% of GPM intervals in violation\n",
              perf_violations * 100.0);
  std::printf("  thermal-aware:     %.1f%% of GPM intervals in violation\n",
              thermal_violations * 100.0);
  bench::note("paper: the thermal policy never violates; perf-aware does");

  const bool ok = thermal_violations == 0.0 &&
                  thermal.degradation >= perf.degradation - 0.02;
  return ok ? 0 : 1;
}
