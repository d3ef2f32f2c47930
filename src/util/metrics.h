// Process-wide metrics registry: named counters (relaxed atomics) and
// histograms (merged util::RunningStats aggregates). Nothing on the
// simulation's per-tick, per-PIC or per-GPM path writes here: each run keeps
// its own counts and stats and publishes them once, when it finishes --
// SimulationRun::finish() (chip ticks, PIC/GPM invocations and their
// histograms), core::calibrate_chips() (calibration ticks) and the
// invariant-checking sink (records checked, violations). The thread pool
// counts its dispatches. `cpm_sim_cli --metrics-out FILE` /
// MetricsRegistry::write_json dump a sorted JSON snapshot. See
// docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "util/stats.h"

namespace cpm::util {

/// Monotonic event count. Increments are relaxed atomics: safe from any
/// thread, never a lock, no cross-thread ordering implied.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Name -> metric registry. Lookups and merges take a mutex; counter
/// objects are allocated stably and never removed, so a Counter reference
/// stays valid for the registry's lifetime.
class MetricsRegistry {
 public:
  /// The process-wide registry every built-in publisher uses.
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);

  /// Adds `n` to counter `name`; a zero count creates no counter.
  void add(const std::string& name, std::uint64_t n);

  /// Folds `stats` into histogram `name` (RunningStats::merge); an empty
  /// `stats` creates no histogram.
  void merge(const std::string& name, const RunningStats& stats);

  /// Point snapshot of a counter by name; 0 when the counter does not exist
  /// (reader-side convenience: never creates the metric).
  std::uint64_t counter_value(const std::string& name) const;

  /// Writes one JSON object, keys sorted by metric name:
  ///   {"counters":{...},"histograms":{"x":{"count":..}}}
  void write_json(std::ostream& os) const;

  /// Zeroes every registered metric (tests / per-run isolation). The metric
  /// entries survive, so cached counter references remain valid.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, RunningStats> histograms_;
};

}  // namespace cpm::util
