// Extension: the interconnect's role in the GALS/VFI design space. The
// paper motivates voltage/frequency islands from GALS design (Sec. I); this
// bench quantifies, with the mesh NoC + banked L2 + pipeline models:
//  * how the banked-L2 round trip stretches memory-bound code's CPI,
//  * what the GALS clock-domain-crossing penalty costs as islands shrink
//    (more boundaries), and
//  * the NoC latency profile itself under load.
#include <cstdio>

#include "bench_util.h"
#include "sim/noc.h"
#include "sim/pipeline.h"
#include "workload/profile.h"
#include "util/units.h"

namespace {

using namespace cpm;

double cpi_with(const sim::MeshNoc* noc, std::size_t nodes_per_island,
                const char* bench) {
  sim::PipelineConfig cfg;
  cfg.memory.noc = noc;
  cfg.memory.noc_node = 0;
  cfg.memory.noc_nodes_per_island = nodes_per_island;
  sim::PipelineCore core(cfg, workload::micro_behavior(bench), 42);
  core.run_cycles(150000, units::GigaHertz{2.0});
  return core.run_cycles(500000, units::GigaHertz{2.0}).cpi();
}

}  // namespace

int main() {
  using namespace cpm;
  bench::header("Extension", "mesh NoC latency profile (2x4, XY routing)");

  sim::NocConfig noc_cfg;
  sim::MeshNoc noc(noc_cfg);
  util::AsciiTable lat({"destination", "hops", "idle (cyc)", "load 0.5",
                        "load 0.9"});
  for (const std::size_t dst : {0ul, 1ul, 3ul, 4ul, 7ul}) {
    lat.add_row({std::to_string(dst),
                 std::to_string(noc.hop_distance(0, dst)),
                 util::AsciiTable::num(noc.latency_cycles(0, dst, 0.0), 1),
                 util::AsciiTable::num(noc.latency_cycles(0, dst, 0.5), 1),
                 util::AsciiTable::num(noc.latency_cycles(0, dst, 0.9), 1)});
  }
  lat.print(std::cout);

  bench::header("Extension", "banked-L2 + GALS cost on pipeline CPI @2GHz");
  util::AsciiTable cpi({"benchmark", "flat L2", "banked L2 (NoC)",
                        "+ CDC, 4-node islands", "+ CDC, 1-node islands"});
  bool ok = true;
  for (const char* bench : {"x264", "canneal"}) {
    const double flat = cpi_with(nullptr, 0, bench);
    const double banked = cpi_with(&noc, 0, bench);
    const double gals4 = cpi_with(&noc, 4, bench);
    const double gals1 = cpi_with(&noc, 1, bench);
    cpi.add_row({bench, util::AsciiTable::num(flat, 2),
                 util::AsciiTable::num(banked, 2),
                 util::AsciiTable::num(gals4, 2),
                 util::AsciiTable::num(gals1, 2)});
    // Shape: each added interconnect cost raises CPI (weakly).
    if (!(flat <= banked + 0.01 && banked <= gals4 + 0.01 &&
          gals4 <= gals1 + 0.01)) {
      ok = false;
    }
  }
  cpi.print(std::cout);
  bench::note("remote L2 banks and island-boundary synchronizers stretch CPI;");
  bench::note("finer islands mean more GALS crossings -- part of the paper's");
  bench::note("case for a modest number of multi-core islands");
  return ok ? 0 : 1;
}
