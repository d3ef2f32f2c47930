// Ablation / validation: the fast analytic core micro-model (sim/core.h,
// used by the full control-loop simulations) against the detailed
// pipeline+cache reference model (sim/pipeline.h), in the dimension that
// matters for the controllers: how BIPS and utilization scale with the DVFS
// frequency for CPU-bound vs memory-bound codes.
//
// The absolute CPIs differ by construction (the analytic model's parameters
// are behavioural, not fitted per benchmark); what must agree is the
// *shape*: near-linear frequency speedup for CPU-bound codes, weak speedup
// with rising utilization at low f for memory-bound codes.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "sim/core.h"
#include "sim/pipeline.h"
#include "workload/profile.h"
#include "util/units.h"

namespace {

using namespace cpm;

struct Point {
  double bips = 0.0;
  double utilization = 0.0;
};

Point analytic(const workload::BenchmarkProfile& profile, double freq) {
  sim::CoreModel core(profile, 42, /*gamma=*/0.5);
  const sim::DvfsPoint op{1.1, freq};
  double bips = 0.0, util = 0.0;
  constexpr int kSteps = 3000;
  for (int i = 0; i < kSteps; ++i) {
    const sim::CoreTick t = core.step(1e-4, op, 0.0, 0.0);
    bips += t.bips;
    util += t.utilization;
  }
  return {bips / kSteps, util / kSteps};
}

Point detailed(const char* name, double freq) {
  sim::PipelineCore core(sim::PipelineConfig{}, workload::micro_behavior(name),
                         42);
  core.run_cycles(200000, units::GigaHertz{freq});  // warmup
  const sim::PipelineRunStats s = core.run_cycles(800000, units::GigaHertz{freq});
  // BIPS = f[GHz] / CPI.
  return {freq / s.cpi(), s.utilization()};
}

}  // namespace

int main() {
  using namespace cpm;
  bench::header("Ablation", "analytic micro-model vs pipeline+cache reference");

  util::AsciiTable table({"benchmark", "class", "model", "BIPS@0.6", "BIPS@2.0",
                          "speedup", "util@0.6", "util@2.0"});
  bool ok = true;
  double min_c_speedup_a = 1e9, max_m_speedup_a = 0.0;
  double min_c_speedup_d = 1e9, max_m_speedup_d = 0.0;
  for (const char* name :
       {"blackscholes", "x264", "streamcluster", "canneal"}) {
    const auto& profile = workload::find_profile(name);
    const Point a_lo = analytic(profile, 0.6);
    const Point a_hi = analytic(profile, 2.0);
    const Point d_lo = detailed(name, 0.6);
    const Point d_hi = detailed(name, 2.0);
    const double a_speedup = a_hi.bips / a_lo.bips;
    const double d_speedup = d_hi.bips / d_lo.bips;

    table.add_row({name, profile.cpu_bound() ? "C" : "M", "analytic",
                   util::AsciiTable::num(a_lo.bips, 2),
                   util::AsciiTable::num(a_hi.bips, 2),
                   util::AsciiTable::num(a_speedup, 2),
                   util::AsciiTable::num(a_lo.utilization, 2),
                   util::AsciiTable::num(a_hi.utilization, 2)});
    table.add_row({name, profile.cpu_bound() ? "C" : "M", "pipeline",
                   util::AsciiTable::num(d_lo.bips, 2),
                   util::AsciiTable::num(d_hi.bips, 2),
                   util::AsciiTable::num(d_speedup, 2),
                   util::AsciiTable::num(d_lo.utilization, 2),
                   util::AsciiTable::num(d_hi.utilization, 2)});

    // Shape agreement: class separation by speedup within each model, and
    // utilization moving the same direction with frequency.
    if (profile.cpu_bound()) {
      min_c_speedup_a = std::min(min_c_speedup_a, a_speedup);
      min_c_speedup_d = std::min(min_c_speedup_d, d_speedup);
    } else {
      max_m_speedup_a = std::max(max_m_speedup_a, a_speedup);
      max_m_speedup_d = std::max(max_m_speedup_d, d_speedup);
    }
    if ((a_hi.utilization - a_lo.utilization) *
            (d_hi.utilization - d_lo.utilization) < 0) {
      ok = false;
    }
  }
  if (min_c_speedup_a <= max_m_speedup_a) ok = false;
  if (min_c_speedup_d <= max_m_speedup_d) ok = false;
  table.print(std::cout);
  bench::note("both models agree on the controller-relevant shape: CPU-bound");
  bench::note("codes scale near-linearly with f, memory-bound codes do not,");
  bench::note("and utilization falls as frequency rises");
  return ok ? 0 : 1;
}
