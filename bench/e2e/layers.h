// Per-layer measurement for the traced pass: parsing the library's own trace
// session, merging it with the benchmark's spans into one Chrome trace,
// per-name count / total / self-time tables, and the component pass that
// times the tick-kernel layers in isolation on a workload's chip config.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "probe.h"

namespace cpm::e2e {

/// One complete ("X") event, from the library (pid 1) or the benchmark
/// (pid 2, tid = span lane).
struct TraceEvent {
  std::string name;
  int pid = 1;
  std::uint32_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  double end_us() const noexcept { return ts_us + dur_us; }
};

/// Extracts the complete events of a util::trace session document (the
/// writer puts one event per line).
std::vector<TraceEvent> parse_library_trace(const std::string& doc);

std::vector<TraceEvent> to_events(const std::vector<BenchSpan>& spans);

/// Writes the library document's events plus the benchmark spans as one
/// Chrome trace_event file. Throws std::runtime_error when it cannot write.
void write_chrome_trace(const std::string& path, const std::string& library_doc,
                        const std::vector<BenchSpan>& spans);

struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  // total minus time covered by child spans
  double share = 0.0;    // total / wall (can exceed 1 across threads)
};

/// Rows per span name, sorted by total time, over events that start inside
/// [begin_us, end_us).
std::vector<LayerRow> layer_table(const std::vector<TraceEvent>& events,
                                  double begin_us, double end_us);

/// Durations (us) of events named `name` starting in [begin_us, end_us).
std::vector<double> durations(const std::vector<TraceEvent>& events,
                              const std::string& name, double begin_us,
                              double end_us);

/// Max-over-mean of `child` durations grouped by the `parent` event that
/// contains them, averaged over parents (1 = perfectly balanced).
double mean_imbalance(const std::vector<TraceEvent>& events,
                      const std::string& parent, const std::string& child,
                      double begin_us, double end_us);

/// Host cost of the tick-kernel and control layers, each timed in a loop on
/// its own over `config`'s chip.
struct ComponentTimes {
  double demand_ns = 0.0;     // WorkloadInstance::step, per core-tick
  double chip_step_ns = 0.0;  // Chip::step (includes demand), per core-tick
  double power_ns = 0.0;      // PowerModel::chip_power_batch, per core-tick
  double rc_ns = 0.0;         // RcThermalModel::step, per core-tick
  double hotspot_ns = 0.0;    // HotspotDetector::record, per core-tick
  double pic_invoke_ns = 0.0;  // Pic::invoke, per call
  double gpm_invoke_ns = 0.0;  // Gpm::invoke, per call
  double checker_ns = 0.0;     // InvariantChecker::check_*, per record
  double checksum = 0.0;       // keeps the timed loops' results live
};

/// Each layer's loop runs for about `loop_s` host seconds.
ComponentTimes component_pass(const core::SimulationConfig& config,
                              double loop_s);

/// Quantile q in [0, 1] by linear interpolation (copies and sorts).
double quantile(std::vector<double> values, double q);

}  // namespace cpm::e2e
