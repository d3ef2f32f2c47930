// A running instance of a benchmark profile on one core: tracks the phase
// clock and per-tick noise, and exposes the instantaneous micro-model inputs
// (effective CPI, memory stall, activity). Deterministic for a given seed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>

#include "util/rng.h"
#include "util/units.h"
#include "workload/profile.h"

namespace cpm::workload {

/// Instantaneous workload demand sampled by the core model each tick.
struct Demand {
  double cpi = 1.0;           // effective core cycles/instruction
  double mem_stall_ns = 0.0;  // effective memory stall ns/instruction
  double activity = 1.0;      // switching activity while active
  double bandwidth_demand = 0.0;
};

class WorkloadInstance {
 public:
  /// `phase_offset` desynchronizes identical profiles on different cores
  /// (the paper schedules the same benchmark on several islands in Mix-3).
  WorkloadInstance(const BenchmarkProfile& profile, std::uint64_t seed,
                   units::Milliseconds phase_offset = units::Milliseconds{0.0});

  /// Advances the phase clock by dt seconds and samples the demand (phase
  /// multipliers plus clamped multiplicative fast_normal3() noise). Demand
  /// is cached between phase changes, so the per-tick cost is the clock
  /// advance and three noise deviates. Defined inline: it runs once per
  /// core per tick inside Chip::step's demand pass, where the out-of-line
  /// call (and the spills and pointer reloads around it) was measurable;
  /// phase changes and ramp ticks take the out-of-line paths.
  Demand step(double dt_seconds) noexcept {
    advance_clock(units::Seconds{dt_seconds}.to_milliseconds());
    // Outside the ramp window the phase multipliers are constant until the
    // phase clock rolls over, so the demand is recomputed only on phase
    // changes and inside ramps.
    if (in_ramp() || phase_index_ != cached_phase_index_) refresh_demand();
    Demand d = cached_demand_;
    const double sigma = profile_->noise_sigma;
    if (sigma > 0.0) {
      // Multiplicative noise, clamped so pathological draws cannot produce
      // non-physical demand. fast_normal3()'s bounded [-3, 3] range sits
      // well inside the clamps at the sigmas profiles use.
      double f1, f2, f3;
      rng_.fast_normal3(f1, f2, f3);
      const double n1 = std::clamp(1.0 + sigma * f1, 0.5, 1.5);
      const double n2 = std::clamp(1.0 + sigma * f2, 0.5, 1.5);
      const double n3 = std::clamp(1.0 + 0.5 * sigma * f3, 0.7, 1.3);
      d.cpi *= n1;
      d.mem_stall_ns *= n2;
      d.activity = std::clamp(d.activity * n3, 0.05, 1.2);
      d.bandwidth_demand *= n2;
    }
    return d;
  }

  /// Demand with the current phase but no fresh noise (for inspection).
  Demand peek() const noexcept;

  const BenchmarkProfile& profile() const noexcept { return *profile_; }
  std::size_t phase_index() const noexcept { return phase_index_; }

 private:
  void advance_clock(units::Milliseconds dt) noexcept {
    time_in_phase_ms_ += dt.value();
    if (time_in_phase_ms_ >= phase_len_ms_) roll_phases();
  }
  /// Moves phase_index_ past every phase the clock has run out of.
  void roll_phases() noexcept;
  /// Refreshes phase_len_ms_ and ramp_ms_ after phase_index_ moves.
  void enter_phase() noexcept;
  bool in_ramp() const noexcept { return time_in_phase_ms_ < ramp_ms_; }
  /// Recomputes cached_demand_ (and cached_phase_index_) with the
  /// expressions peek() evaluates, so step() stays bit-identical to
  /// peek() plus noise.
  void refresh_demand() noexcept;
  Demand demand_for(double cpi_mult, double mem_mult,
                    double activity_mult) const noexcept;
  /// The current phase's demand without ramp or noise.
  Demand phase_demand() const noexcept;
  /// The ramp-window demand: the lerp from the previous phase's multipliers
  /// (only valid while in_ramp()).
  Demand ramp_demand() const noexcept;

  const BenchmarkProfile* profile_;
  util::Xoshiro256pp rng_;
  std::size_t phase_index_ = 0;
  double time_in_phase_ms_ = 0.0;

  /// Scaled duration of the current phase (duration_ms * phase_time_scale)
  /// and its ramp window (kRampFraction * phase_len_ms_), refreshed whenever
  /// phase_index_ moves. Keeps the phase-advance test and the ramp test off
  /// the multiplies. A profile without phases never rolls (+inf), and one
  /// with fewer than two phases never ramps (-inf).
  double phase_len_ms_ = std::numeric_limits<double>::infinity();
  double ramp_ms_ = -std::numeric_limits<double>::infinity();

  /// step() demand cache: outside the ramp window the phase multipliers are
  /// constant, so the peek() recompute is identical every tick until the
  /// phase changes. kNoCachedPhase marks the cache invalid (initially, and
  /// through the ramp window where the interpolation weight moves per tick).
  static constexpr std::size_t kNoCachedPhase = static_cast<std::size_t>(-1);
  Demand cached_demand_{};
  std::size_t cached_phase_index_ = kNoCachedPhase;

  /// Fraction of each phase spent ramping from the previous phase's
  /// multipliers (smooth transitions: real applications shift demand over
  /// milliseconds, not instantaneously between two 100 us ticks).
  static constexpr double kRampFraction = 0.3;
};

}  // namespace cpm::workload
