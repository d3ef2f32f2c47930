// Tables II & III: PARSEC benchmark details and the application mixes /
// island assignments for the 8-, 16- and 32-core configurations.
#include <iostream>
#include <string>

#include "bench_util.h"
#include "workload/mixes.h"

namespace {

std::string classes(const cpm::workload::IslandAssignment& island) {
  std::string out;
  for (const auto* p : island) {
    if (!out.empty()) out += ", ";
    out += p->cpu_bound() ? "C" : "M";
  }
  return out;
}

std::string names(const cpm::workload::IslandAssignment& island) {
  std::string out;
  for (const auto* p : island) {
    if (!out.empty()) out += ", ";
    out += std::string(p->short_name);
  }
  return out;
}

void print_mix(const cpm::workload::Mix& mix, const std::string& caption) {
  cpm::bench::header("Table III", caption);
  cpm::util::AsciiTable table({"island", "benchmarks", "characteristics"});
  for (std::size_t i = 0; i < mix.islands.size(); ++i) {
    table.add_row({std::to_string(i + 1), names(mix.islands[i]),
                   classes(mix.islands[i])});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  using namespace cpm;
  bench::header("Table II", "PARSEC benchmark details (synthetic profiles)");
  util::AsciiTable table({"benchmark", "abbrev", "class", "CPI core",
                          "mem stall (ns/instr)", "activity", "Ceff scale"});
  for (const auto& p : workload::parsec_profiles()) {
    table.add_row({std::string(p.name), std::string(p.short_name),
                   p.cpu_bound() ? "CPU-bound" : "memory-bound",
                   util::AsciiTable::num(p.cpi_base, 2),
                   util::AsciiTable::num(p.mem_stall_ns, 2),
                   util::AsciiTable::num(p.activity_active, 2),
                   util::AsciiTable::num(p.ceff_scale, 2)});
  }
  table.print(std::cout);

  print_mix(workload::mix1(), "(a) Mix-1 for 8-core CMP");
  print_mix(workload::mix2(), "(b) Mix-2 for 8-core CMP");
  print_mix(workload::mix3(1), "(c) Mix-3 for 16-core CMP (replicated 2x for 32)");
  print_mix(workload::thermal_mix(), "thermal study: 8 islands x 1 core (Fig. 18a)");
  return 0;
}
