// Evaluation metrics computed from simulation traces: the controller
// robustness measures the paper reports (max overshoot, settling time,
// steady-state error -- per island and chip-wide) and performance
// degradation against the unmanaged (NoDVFS) reference.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/simulation.h"
#include "core/types.h"

namespace cpm::core {

/// Tracking quality of one island's PIC against its GPM targets.
struct IslandTrackingMetrics {
  /// Worst overshoot of actual power past target, as a fraction of the
  /// target (positive direction only; paper reports "within 2 %").
  double max_overshoot = 0.0;
  /// Settling time of a window: first PIC invocation after which the power
  /// stays inside the settling band for two consecutive invocations
  /// (unsettled windows count as the full window length). Paper: 5-6.
  std::size_t worst_settling_time = 0;
  double mean_settling_time = 0.0;
  /// Mean |actual - target| / target in the settled part of each window.
  double steady_state_error = 0.0;
  /// Mean |actual - target| / target over everything.
  double mean_tracking_error = 0.0;
};

struct TrackingOptions {
  /// Band (fraction of target) used for settling detection. Wider than the
  /// steady-state-error figure because one island DVFS quantum moves power
  /// by several percent of the target.
  double settling_band = 0.05;
  /// PIC invocations per GPM window.
  std::size_t window = 10;
  /// Use the sensed (controller-visible) power instead of ground truth.
  bool use_sensed = false;
  /// GPM windows excluded from the metrics while the loop converges from its
  /// initial condition.
  std::size_t warmup_windows = 2;
};

/// Computes per-island tracking metrics from the PIC-interval trace.
IslandTrackingMetrics island_tracking_metrics(
    std::span<const PicIntervalRecord> records, std::size_t island,
    const TrackingOptions& options = {});

/// Chip-wide tracking: max over/undershoot of total power vs the budget, as
/// fractions of the budget (paper Fig. 10: within 4 %).
struct ChipTrackingMetrics {
  double max_overshoot = 0.0;   // (power - budget)/budget, positive part
  double max_undershoot = 0.0;  // (budget - power)/budget, positive part
  double mean_abs_error = 0.0;
  double mean_power_w = 0.0;
};

/// The first `warmup_windows` records are excluded; a trace no longer than
/// the warm-up yields all-zero metrics. Folds a ChipTrackingAccumulator over
/// `records`, so it agrees exactly with a sink's streamed tracking().
ChipTrackingMetrics chip_tracking_metrics(
    std::span<const GpmIntervalRecord> records, std::size_t warmup_windows = 2);

/// Streaming form of chip_tracking_metrics(): feed it each GPM record as it
/// is produced and read the metrics at any point, in O(1) memory. The first
/// `warmup_windows` records are excluded. Used by the record sinks to keep
/// tracking metrics exact when the retained trace is not the full one.
class ChipTrackingAccumulator {
 public:
  explicit ChipTrackingAccumulator(std::size_t warmup_windows = 2) noexcept
      : warmup_(warmup_windows) {}

  void add(const GpmIntervalRecord& rec) noexcept;
  ChipTrackingMetrics metrics() const noexcept;
  /// Records counted so far (after warmup exclusion).
  std::size_t windows() const noexcept { return counted_; }

 private:
  std::size_t warmup_;
  std::size_t seen_ = 0;
  std::size_t counted_ = 0;
  double err_sum_ = 0.0;
  double power_sum_ = 0.0;
  double max_overshoot_ = 0.0;
  double max_undershoot_ = 0.0;
};

/// Fractional throughput loss of `managed` vs `baseline` (same seed/length):
/// 1 - instructions_managed / instructions_baseline.
double performance_degradation(const SimulationResult& managed,
                               const SimulationResult& baseline);

/// Per-GPM-interval degradation series (Fig. 14): 1 - bips/bips_baseline.
std::vector<double> degradation_over_time(const SimulationResult& managed,
                                          const SimulationResult& baseline);

}  // namespace cpm::core
