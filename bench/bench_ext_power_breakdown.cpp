// Extension: Wattch-style per-structure power breakdown for representative
// benchmarks at two DVFS points -- the accounting Wattch produces for the
// paper's power numbers, regenerated from our structural model.
#include <cstdio>

#include "bench_util.h"
#include "power/structures.h"
#include "workload/profile.h"

int main() {
  using namespace cpm;
  bench::header("Extension", "Wattch-style per-structure power breakdown");

  const sim::CmpConfig cfg = sim::CmpConfig::default_8core();
  power::StructuralPowerModel model(cfg);

  for (const char* name : {"blackscholes", "canneal"}) {
    const auto& mix = workload::instruction_mix(name);
    const auto& profile = workload::find_profile(name);
    // Representative utilizations at fmax from the analytic profiles.
    const double u = profile.cpu_bound() ? 0.88 : 0.30;

    std::printf("\n  %s (utilization %.2f):\n", name, u);
    util::AsciiTable table({"unit", "@0.6GHz (W)", "@2.0GHz (W)", "share@2.0"});
    const auto lo = model.breakdown(mix, u, units::Volts{0.956}, units::GigaHertz{0.6});
    const auto hi = model.breakdown(mix, u, units::Volts{1.26}, units::GigaHertz{2.0});
    for (std::size_t i = 0; i < hi.size(); ++i) {
      table.add_row({std::string(power::unit_name(hi[i].unit)),
                     util::AsciiTable::num(lo[i].watts, 3),
                     util::AsciiTable::num(hi[i].watts, 3),
                     util::AsciiTable::pct(hi[i].share, 1)});
    }
    table.print(std::cout);
    std::printf("  total: %.2f W @0.6GHz, %.2f W @2.0GHz\n",
                model.total_power(mix, u, units::Volts{0.956}, units::GigaHertz{0.6}).value(),
                model.total_power(mix, u, units::Volts{1.26}, units::GigaHertz{2.0}).value());
  }
  return 0;
}
