#include "core/metrics.h"

#include <algorithm>
#include <cmath>

namespace cpm::core {

IslandTrackingMetrics island_tracking_metrics(
    std::span<const PicIntervalRecord> records, std::size_t island,
    const TrackingOptions& options) {
  IslandTrackingMetrics metrics;
  // Collect this island's samples in time order.
  std::vector<double> actual, target;
  for (const auto& rec : records) {
    if (rec.island != island) continue;
    actual.push_back(options.use_sensed ? rec.sensed_w : rec.actual_w);
    target.push_back(rec.target_w);
  }
  if (actual.empty()) return metrics;

  double err_sum = 0.0;
  std::size_t err_count = 0;
  double settled_err_sum = 0.0;
  std::size_t settled_count = 0;
  std::size_t windows = 0;

  // Process per GPM window: the target is constant within a window; settling
  // is measured from the window start (a setpoint step).
  const std::size_t w = std::max<std::size_t>(1, options.window);
  const std::size_t first = std::min(options.warmup_windows * w, actual.size());
  for (std::size_t start = first; start < actual.size(); start += w) {
    const std::size_t end = std::min(start + w, actual.size());
    const double ref = target[start];
    if (ref <= 0.0) continue;
    const double band = options.settling_band * ref;

    // Settling: first invocation from which the response is inside the band
    // for two consecutive invocations.
    std::size_t settle = end - start;  // default: never settled
    for (std::size_t i = start; i + 1 < end; ++i) {
      if (std::abs(actual[i] - ref) <= band &&
          std::abs(actual[i + 1] - ref) <= band) {
        settle = i - start;
        break;
      }
    }
    metrics.worst_settling_time =
        std::max(metrics.worst_settling_time, settle);
    metrics.mean_settling_time += static_cast<double>(settle);
    ++windows;

    for (std::size_t i = start; i < end; ++i) {
      const double rel = std::abs(actual[i] - ref) / ref;
      err_sum += rel;
      ++err_count;
      const double over = (actual[i] - ref) / ref;
      metrics.max_overshoot = std::max(metrics.max_overshoot, over);
      if (i - start >= settle) {
        settled_err_sum += rel;
        ++settled_count;
      }
    }
  }
  if (windows > 0) {
    metrics.mean_settling_time /= static_cast<double>(windows);
  }
  metrics.mean_tracking_error =
      err_count ? err_sum / static_cast<double>(err_count) : 0.0;
  metrics.steady_state_error =
      settled_count ? settled_err_sum / static_cast<double>(settled_count)
                    : metrics.mean_tracking_error;
  return metrics;
}

ChipTrackingMetrics chip_tracking_metrics(
    std::span<const GpmIntervalRecord> records, std::size_t warmup_windows) {
  ChipTrackingAccumulator tracking(warmup_windows);
  for (const GpmIntervalRecord& rec : records) tracking.add(rec);
  return tracking.metrics();
}

void ChipTrackingAccumulator::add(const GpmIntervalRecord& rec) noexcept {
  if (++seen_ <= warmup_) return;
  ++counted_;
  power_sum_ += rec.chip_actual_w;
  if (rec.chip_budget_w <= 0.0) return;
  const double rel = (rec.chip_actual_w - rec.chip_budget_w) / rec.chip_budget_w;
  max_overshoot_ = std::max(max_overshoot_, rel);
  max_undershoot_ = std::max(max_undershoot_, -rel);
  err_sum_ += std::abs(rel);
}

ChipTrackingMetrics ChipTrackingAccumulator::metrics() const noexcept {
  ChipTrackingMetrics m;
  if (counted_ == 0) return m;
  m.max_overshoot = max_overshoot_;
  m.max_undershoot = max_undershoot_;
  m.mean_abs_error = err_sum_ / static_cast<double>(counted_);
  m.mean_power_w = power_sum_ / static_cast<double>(counted_);
  return m;
}

double performance_degradation(const SimulationResult& managed,
                               const SimulationResult& baseline) {
  if (baseline.total_instructions <= 0.0) return 0.0;
  return 1.0 - managed.total_instructions / baseline.total_instructions;
}

std::vector<double> degradation_over_time(const SimulationResult& managed,
                                          const SimulationResult& baseline) {
  const std::size_t n =
      std::min(managed.gpm_records.size(), baseline.gpm_records.size());
  std::vector<double> series(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double base = baseline.gpm_records[i].chip_bips;
    if (base > 0.0) {
      series[i] = 1.0 - managed.gpm_records[i].chip_bips / base;
    }
  }
  return series;
}

}  // namespace cpm::core
