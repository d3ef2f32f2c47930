// Table I: core, memory, CMP configuration and voltage-frequency settings.
#include <iostream>

#include "bench_util.h"
#include "sim/config.h"

int main() {
  using namespace cpm;
  bench::header("Table I", "Core, Memory, CMP configuration and V-f settings");

  const sim::CmpConfig cfg = sim::CmpConfig::default_8core();
  util::AsciiTable table({"parameter", "value"});
  table.add_row({"Technology", "90 nm, 2 GHz (nominal)"});
  table.add_row({"Core fetch/issue/commit width",
                 std::to_string(cfg.fetch_width) + "/" +
                     std::to_string(cfg.issue_width) + "/" +
                     std::to_string(cfg.commit_width)});
  table.add_row({"Register file size",
                 std::to_string(cfg.register_file_entries) + " entries"});
  table.add_row({"Scheduler size (fp, int)",
                 std::to_string(cfg.scheduler_fp_entries) + ", " +
                     std::to_string(cfg.scheduler_int_entries)});
  auto cache_row = [&](const sim::CacheConfig& c) {
    table.add_row({c.name, std::to_string(c.ways) + "-way, " +
                               std::to_string(c.size_kb) + " KB, " +
                               std::to_string(c.block_bytes) + " B blocks, " +
                               std::to_string(c.access_cycles) +
                               "-cycle access"});
  };
  cache_row(cfg.l1d);
  cache_row(cfg.l1i);
  cache_row(cfg.l2);
  table.add_row({"Memory", std::to_string(cfg.memory_latency_cycles) +
                               " cycles access delay"});
  table.add_row({"CMP configuration",
                 std::to_string(cfg.total_cores()) +
                     " x86 OoO cores running Linux (" +
                     std::to_string(cfg.num_islands) + " islands, " +
                     std::to_string(cfg.cores_per_island) +
                     " cores per island)"});
  table.add_row({"GPM / PIC intervals", "5 ms / 0.5 ms"});
  table.add_row({"DVFS transition overhead", "0.5% of CPU time"});
  table.print(std::cout);

  bench::header("Table I (cont.)", "Voltage (V) - Frequency (MHz) settings");
  util::AsciiTable dvfs({"level", "voltage (V)", "frequency (MHz)"});
  for (std::size_t l = 0; l < cfg.dvfs.num_levels(); ++l) {
    dvfs.add_row({std::to_string(l),
                  util::AsciiTable::num(cfg.dvfs.level(l).voltage, 3),
                  util::AsciiTable::num(cfg.dvfs.level(l).freq_ghz * 1000, 0)});
  }
  dvfs.print(std::cout);
  return 0;
}
