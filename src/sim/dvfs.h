// DVFS substrate: the 8 voltage/frequency operating points of paper Table I
// (600 MHz - 2.0 GHz, Pentium-M derived) and the per-island actuator that
// quantizes controller requests onto the discrete levels and charges the
// paper's 0.5 % switch overhead.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/units.h"

namespace cpm::sim {

struct DvfsPoint {
  double voltage = 1.0;    // volts
  double freq_ghz = 1.0;   // GHz

  /// V^2 f: the quantity dynamic power scales with across operating points
  /// (paper Eq. 1 with V affine in f). Shared by the transducer's level
  /// normalization, MaxBIPS's prediction table and the GPM's demand
  /// ceilings.
  double dynamic_energy_scale() const noexcept {
    return voltage * voltage * freq_ghz;
  }

  bool operator==(const DvfsPoint&) const = default;
};

class DvfsTable {
 public:
  /// Table I's 8 V/f pairs.
  static const DvfsTable& pentium_m();

  explicit DvfsTable(std::vector<DvfsPoint> points);

  std::size_t num_levels() const noexcept { return points_.size(); }
  const DvfsPoint& level(std::size_t idx) const noexcept { return points_[idx]; }
  std::span<const DvfsPoint> levels() const noexcept { return points_; }

  std::size_t min_level() const noexcept { return 0; }
  std::size_t max_level() const noexcept { return points_.size() - 1; }
  units::GigaHertz min_freq() const noexcept {
    return units::GigaHertz{points_.front().freq_ghz};
  }
  units::GigaHertz max_freq() const noexcept {
    return units::GigaHertz{points_.back().freq_ghz};
  }

  /// Level whose frequency is closest to `freq` (ties -> lower level).
  std::size_t nearest_level(units::GigaHertz freq) const noexcept;
  /// Highest level with frequency <= freq; level 0 if none.
  std::size_t floor_level(units::GigaHertz freq) const noexcept;

  bool operator==(const DvfsTable&) const = default;

 private:
  std::vector<DvfsPoint> points_;  // sorted ascending by frequency
};

/// Per-island DVFS knob. All cores of an island share it (the paper's key
/// architectural constraint vs. per-core DVFS schemes).
class DvfsActuator {
 public:
  DvfsActuator(const DvfsTable& table, std::size_t initial_level,
               double transition_overhead_fraction,
               double controller_interval_s);

  const DvfsTable& table() const noexcept { return *table_; }
  std::size_t current_level() const noexcept { return level_; }
  const DvfsPoint& operating_point() const noexcept {
    return table_->level(level_);
  }

  /// Requests a (possibly fractional) frequency; quantizes to the nearest
  /// level. Returns true if the level changed (incurring the stall penalty).
  bool request_frequency(units::GigaHertz freq);
  /// Directly selects a level (used by MaxBIPS's table-driven policy).
  bool set_level(std::size_t level);

  /// Charges extra stall time (e.g. thread-migration cache-warmup cost).
  void add_stall(double seconds) noexcept { pending_stall_s_ += seconds; }

  /// Seconds of stall still owed due to recent transitions; `consume_stall`
  /// drains up to dt of it and returns the amount consumed.
  double pending_stall() const noexcept { return pending_stall_s_; }
  double consume_stall(double dt_seconds) noexcept;

  std::size_t transition_count() const noexcept { return transitions_; }

 private:
  const DvfsTable* table_;
  std::size_t level_;
  double transition_stall_s_;  // stall charged per level change
  double pending_stall_s_ = 0.0;
  std::size_t transitions_ = 0;
};

}  // namespace cpm::sim
