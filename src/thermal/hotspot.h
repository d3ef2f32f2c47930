// Hotspot detection for the thermal-aware study (paper Sec. IV-A): tracks
// per-core threshold crossings and the fraction of time any core spends above
// the hotspot temperature.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/isa.h"

namespace cpm::thermal {

namespace kernels {

/// The hotspot sweep over `n` cores at `isa` (every ISA gives the same
/// bits): adds dt_seconds to core_hot_s[i] for every core hotter than its
/// threshold_c[i], and returns whether any was. core_hot_s must not overlap
/// the inputs.
bool hotspot_accumulate(util::Isa isa, std::size_t n, const double* temps_c,
                        const double* threshold_c, double dt_seconds,
                        double* core_hot_s) noexcept;

}  // namespace kernels

class HotspotDetector {
 public:
  HotspotDetector(std::size_t num_cores, double threshold_c);

  /// Records one sample of duration dt; returns true if any core is hot.
  bool record(std::span<const double> temps_c, double dt_seconds);

  double threshold_c() const noexcept { return threshold_c_.front(); }
  /// Total observed time and time with >= 1 hot core.
  double observed_seconds() const noexcept { return observed_s_; }
  double hot_seconds() const noexcept { return hot_s_; }
  /// Fraction of time with at least one hotspot.
  double hot_fraction() const noexcept;
  /// Per-core cumulative hot time.
  const std::vector<double>& core_hot_seconds() const noexcept {
    return core_hot_s_;
  }
  std::size_t events() const noexcept { return events_; }

  void reset();

 private:
  std::vector<double> threshold_c_;  // one per core, all equal
  double observed_s_ = 0.0;
  double hot_s_ = 0.0;
  std::vector<double> core_hot_s_;
  std::size_t events_ = 0;  // rising edges of the any-core-hot condition
  bool was_hot_ = false;
};

}  // namespace cpm::thermal
