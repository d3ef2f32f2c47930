// Extension: robustness of the headline results to experimental choices the
// paper fixes silently -- the RNG seed, the shared-memory contention
// strength, and the calibration length. For each knob, re-run the default
// 80 %-budget experiment and report the spread of the key metrics.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace {

using namespace cpm;

struct Outcome {
  double power_fraction;  // of budget
  double overshoot;
  double degradation;
};

Outcome run(const core::SimulationConfig& cfg) {
  const core::ManagedVsBaseline mb =
      core::run_with_baseline(cfg, core::kDefaultDurationS);
  const core::ChipTrackingMetrics chip =
      core::chip_tracking_metrics(mb.managed.gpm_records);
  return {mb.managed.avg_chip_power_w / mb.managed.budget_w,
          chip.max_overshoot, mb.degradation};
}

}  // namespace

int main() {
  using namespace cpm;
  bench::header("Extension", "seed sensitivity (10 seeds, 80% budget)");

  const std::vector<std::uint64_t> seeds{1, 7, 13, 42, 99, 123, 1234, 5555,
                                         77777, 424242};
  const auto outcomes = util::parallel_map<Outcome>(
      seeds.size(),
      [&seeds](std::size_t i) {
        return run(core::default_config(0.8, seeds[i]));
      });

  util::RunningStats power, overshoot, degradation;
  for (const Outcome& o : outcomes) {
    power.add(o.power_fraction);
    overshoot.add(o.overshoot);
    degradation.add(o.degradation);
  }
  util::AsciiTable seed_table({"metric", "mean", "std", "min", "max"});
  auto row = [&](const char* name, const util::RunningStats& s, bool pct) {
    auto fmt = [&](double v) {
      return pct ? util::AsciiTable::pct(v, 2) : util::AsciiTable::num(v, 3);
    };
    seed_table.add_row({name, fmt(s.mean()), fmt(s.stddev()), fmt(s.min()),
                        fmt(s.max())});
  };
  row("power / budget", power, true);
  row("chip overshoot", overshoot, true);
  row("perf degradation", degradation, true);
  seed_table.print(std::cout);
  bench::note("the headline numbers are stable across seeds");

  bench::header("Extension", "contention-strength sensitivity (gamma sweep)");
  util::AsciiTable gamma_table(
      {"gamma", "power/budget", "overshoot", "degradation"});
  for (const double gamma : {0.0, 0.25, 0.5, 1.0, 2.0}) {
    core::SimulationConfig cfg = core::default_config(0.8, 42);
    cfg.cmp.contention_gamma = gamma;
    const Outcome o = run(cfg);
    gamma_table.add_row({util::AsciiTable::num(gamma, 2),
                         util::AsciiTable::pct(o.power_fraction, 1),
                         util::AsciiTable::pct(o.overshoot, 1),
                         util::AsciiTable::pct(o.degradation, 1)});
  }
  gamma_table.print(std::cout);

  bench::header("Extension", "calibration-length sensitivity");
  util::AsciiTable calib_table(
      {"calibration (ms)", "power/budget", "overshoot", "mean transducer R^2"});
  for (const double calib_s : {0.02, 0.05, 0.1, 0.2}) {
    core::SimulationConfig cfg = core::default_config(0.8, 42);
    cfg.calibration_seconds = calib_s;
    core::Simulation sim(cfg);
    const core::SimulationResult res = sim.run(core::kDefaultDurationS);
    const core::ChipTrackingMetrics chip =
        core::chip_tracking_metrics(res.gpm_records);
    double r2 = 0.0;
    for (const auto& t : res.calibration.transducers) r2 += t.r_squared;
    r2 /= static_cast<double>(res.calibration.transducers.size());
    calib_table.add_row({util::AsciiTable::num(calib_s * 1e3, 0),
                         util::AsciiTable::pct(
                             res.avg_chip_power_w / res.budget_w, 1),
                         util::AsciiTable::pct(chip.max_overshoot, 1),
                         util::AsciiTable::num(r2, 3)});
  }
  calib_table.print(std::cout);
  bench::note("tracking quality saturates once calibration covers a few");
  bench::note("phase cycles of every benchmark");

  // Shape checks: seed spread must be modest.
  const bool ok = overshoot.max() < 0.12 && degradation.stddev() < 0.03 &&
                  power.stddev() < 0.02;
  return ok ? 0 : 1;
}
