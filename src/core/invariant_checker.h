// Runtime invariant checking over the per-interval record stream: a
// CheckingSink decorator validates every PIC/GPM record a SimulationRun
// produces against the structural guarantees the two-tier manager is
// supposed to maintain --
//   * the GPM never allocates more than the chip budget, and never a
//     negative share;
//   * PIC frequencies stay inside the DVFS table, land exactly on a table
//     level (the actuator quantizes), and -- under CPM -- never move faster
//     than the PID step clamp plus one quantization quantum per interval;
//   * sensed power fed back to the controllers is non-negative;
//   * a thermal-aware run never completes a cap-violation streak (checked by
//     a shadow ThermalConstraintTracker replaying the recorded allocations);
//   * the sink's streaming aggregates (Welford stats, tracking accumulator)
//     agree with an exact long-double recompute over the same records.
// Used by the fuzz harness (tests/fuzz) and by `cpm_sim_cli
// --check-invariants`; violations are collected, or thrown when fatal.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/record_sink.h"
#include "core/simulation.h"
#include "core/thermal_policy.h"
#include "core/types.h"
#include "sim/dvfs.h"

namespace cpm::core {

struct InvariantViolation {
  std::string invariant;  // stable id, e.g. "gpm.budget_sum"
  double time_s = 0.0;
  /// Island the violation concerns; kChipWide for chip-level invariants.
  static constexpr std::size_t kChipWide = static_cast<std::size_t>(-1);
  std::size_t island = kChipWide;
  std::string detail;  // offending values, human-readable

  std::string to_string() const;
};

/// Thrown by a fatal checker on the first violation.
class InvariantViolationError : public std::runtime_error {
 public:
  explicit InvariantViolationError(const InvariantViolation& v)
      : std::runtime_error(v.to_string()), violation_(v) {}
  const InvariantViolation& violation() const noexcept { return violation_; }

 private:
  InvariantViolation violation_;
};

struct InvariantCheckerConfig {
  std::size_t num_islands = 0;
  /// Relative slack on the budget-sum check (FP accumulation noise).
  double budget_rel_tol = 1e-6;
  /// DVFS table for frequency-bound and quantization checks; disabled when
  /// unset.
  std::optional<sim::DvfsTable> dvfs;
  double freq_tol_ghz = 1e-9;
  /// Check per-interval frequency movement against the PIC step clamp. Only
  /// meaningful for CPM (MaxBIPS sets levels directly; NoDVFS never moves).
  bool check_freq_step = false;
  double max_step_ghz = 0.4;
  /// Shadow thermal-streak tracking; set for thermal-aware runs.
  std::optional<ThermalConstraints> thermal;
  /// Throw InvariantViolationError on the first violation instead of
  /// collecting it.
  bool fatal = false;
};

class InvariantChecker {
 public:
  explicit InvariantChecker(InvariantCheckerConfig config);

  void check_pic(const PicIntervalRecord& rec);
  void check_gpm(const GpmIntervalRecord& rec);
  /// Cross-checks the sink's streaming aggregates against this checker's
  /// exact recompute; call once, after the sink has seen every record (the
  /// CheckingSink decorator does this from finish()).
  void check_aggregates(const RecordSink& sink);

  const std::vector<InvariantViolation>& violations() const noexcept {
    return violations_;
  }
  bool ok() const noexcept { return violations_.empty(); }
  std::size_t pic_records_checked() const noexcept { return pic_count_; }
  std::size_t gpm_records_checked() const noexcept { return gpm_count_; }
  /// One-line status plus (up to) the first three violations.
  std::string summary() const;

  const InvariantCheckerConfig& config() const noexcept { return config_; }

 private:
  void report(InvariantViolation v);

  InvariantCheckerConfig config_;
  std::vector<InvariantViolation> violations_;
  std::vector<double> prev_freq_ghz_;  // per island; NaN = no record yet
  double max_level_gap_ghz_ = 0.0;     // widest adjacent DVFS-level gap
  std::optional<ThermalConstraintTracker> shadow_thermal_;
  // Exact aggregate recompute (long double accumulation, no Welford).
  long double power_sum_ = 0.0L;
  long double bips_sum_ = 0.0L;
  ChipTrackingAccumulator shadow_tracking_;
  std::size_t pic_count_ = 0;
  std::size_t gpm_count_ = 0;
};

/// RecordSink decorator: validates every record with an InvariantChecker,
/// then forwards it to the wrapped sink (through the sink's public entry
/// points, so the inner sink's own counters/aggregates stay correct).
/// finish() runs the aggregate cross-check before delegating.
class CheckingSink : public RecordSink {
 public:
  /// Borrows both; they must outlive the sink.
  CheckingSink(InvariantChecker& checker, RecordSink& inner);
  /// Borrows the checker, owns the inner sink.
  CheckingSink(InvariantChecker& checker, std::unique_ptr<RecordSink> inner);

  const InvariantChecker& checker() const noexcept { return *checker_; }

 protected:
  void on_pic(const PicIntervalRecord& rec) override;
  void on_gpm(const GpmIntervalRecord& rec) override;
  void on_finish(SimulationResult& result) override;

 private:
  InvariantChecker* checker_;
  std::unique_ptr<RecordSink> owned_inner_;
  RecordSink* inner_;
};

/// Checker configuration matching what `sim` actually enforces: its DVFS
/// table, its PIC step clamp (CPM only), and -- for thermal-aware runs --
/// the same resolved thermal constraints the policy uses.
InvariantCheckerConfig checker_config_for(const Simulation& sim);

}  // namespace cpm::core
