// Extension benches for the two policy classes the paper names as feasible
// but does not evaluate:
//  * energy-aware provisioning with a minimum performance guarantee -- sweep
//    the guarantee and report the (power saved, throughput kept) frontier;
//  * QoS provisioning -- per-island SLAs under a tight budget.
#include <cstdio>

#include "bench_util.h"
#include "core/experiment.h"

int main() {
  using namespace cpm;
  bench::header("Extension", "energy-aware policy: guarantee vs power frontier");

  // Reference: performance-aware at a 100 % budget.
  core::Simulation ref_sim(core::default_config(1.0));
  const core::SimulationResult ref = ref_sim.run(core::kDefaultDurationS);

  util::AsciiTable energy_table({"min-perf guarantee", "power (% of perf run)",
                                 "throughput (% of perf run)"});
  bool ok = true;
  double prev_power = 1e9;
  for (const double guarantee : {0.98, 0.95, 0.90, 0.80}) {
    core::SimulationConfig cfg =
        core::with_policy(core::default_config(1.0), core::PolicyKind::kEnergy);
    cfg.energy_policy.min_perf_fraction = guarantee;
    core::Simulation sim(cfg);
    const core::SimulationResult res = sim.run(core::kDefaultDurationS);
    const double power_frac = res.avg_chip_power_w / ref.avg_chip_power_w;
    const double perf_frac = res.total_instructions / ref.total_instructions;
    energy_table.add_row({util::AsciiTable::pct(guarantee, 0),
                          util::AsciiTable::pct(power_frac, 1),
                          util::AsciiTable::pct(perf_frac, 1)});
    // Frontier shape: looser guarantees must not cost more power.
    if (power_frac > prev_power + 0.03) ok = false;
    prev_power = power_frac;
    if (perf_frac < guarantee - 0.12) ok = false;  // guarantee roughly held
  }
  energy_table.print(std::cout);
  bench::note("looser guarantees buy more power savings; throughput stays");
  bench::note("near the guarantee band");

  bench::header("Extension", "QoS policy: per-island SLA under a 60% budget");
  core::SimulationConfig base = core::default_config(0.6, 11);
  core::Simulation probe(core::with_manager(base, core::ManagerKind::kNoDvfs));
  const core::SimulationResult free_run = probe.run(core::kDefaultDurationS);

  core::SimulationConfig qos_cfg = core::with_policy(base, core::PolicyKind::kQos);
  qos_cfg.qos_policy.min_bips = {0.0, free_run.island_avg_bips[1] * 0.9, 0.0,
                                 0.0};
  core::Simulation qos_sim(qos_cfg);
  core::Simulation plain_sim(base);
  const core::SimulationResult qos = qos_sim.run(core::kDefaultDurationS);
  const core::SimulationResult plain = plain_sim.run(core::kDefaultDurationS);

  util::AsciiTable qos_table(
      {"island", "unmanaged BIPS", "perf-aware BIPS", "QoS BIPS", "SLA"});
  for (std::size_t i = 0; i < 4; ++i) {
    qos_table.add_row(
        {std::to_string(i + 1),
         util::AsciiTable::num(free_run.island_avg_bips[i], 3),
         util::AsciiTable::num(plain.island_avg_bips[i], 3),
         util::AsciiTable::num(qos.island_avg_bips[i], 3),
         i == 1 ? util::AsciiTable::num(qos_cfg.qos_policy.min_bips[1], 3)
                : "-"});
  }
  qos_table.print(std::cout);
  bench::note("the SLA island holds its throughput under the tight budget;");
  bench::note("best-effort islands absorb the shortfall");
  if (qos.island_avg_bips[1] <= plain.island_avg_bips[1]) ok = false;
  return ok ? 0 : 1;
}
