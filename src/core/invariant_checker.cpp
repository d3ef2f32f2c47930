#include "core/invariant_checker.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "util/metrics.h"

namespace cpm::core {

namespace {

std::string fmt(double v) {
  std::ostringstream ss;
  ss.precision(17);
  ss << v;
  return ss.str();
}

/// |a - b| <= abs_tol + rel_tol * max(|a|, |b|).
bool close(double a, double b, double rel_tol, double abs_tol) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= abs_tol + rel_tol * scale;
}

}  // namespace

std::string InvariantViolation::to_string() const {
  std::ostringstream ss;
  ss.precision(17);
  ss << "invariant violation [" << invariant << "] at t=" << time_s << "s";
  if (island != kChipWide) ss << " island " << island;
  ss << ": " << detail;
  return ss.str();
}

InvariantChecker::InvariantChecker(InvariantCheckerConfig config)
    : config_(std::move(config)),
      prev_freq_ghz_(config_.num_islands,
                     std::numeric_limits<double>::quiet_NaN()),
      shadow_tracking_(/*warmup_windows=*/2) {
  if (config_.dvfs) {
    for (std::size_t l = 0; l + 1 < config_.dvfs->num_levels(); ++l) {
      max_level_gap_ghz_ =
          std::max(max_level_gap_ghz_, config_.dvfs->level(l + 1).freq_ghz -
                                           config_.dvfs->level(l).freq_ghz);
    }
  }
  if (config_.thermal) {
    shadow_thermal_.emplace(*config_.thermal, config_.num_islands);
  }
}

void InvariantChecker::report(InvariantViolation v) {
  if (config_.fatal) throw InvariantViolationError(v);
  violations_.push_back(std::move(v));
}

void InvariantChecker::check_pic(const PicIntervalRecord& rec) {
  ++pic_count_;
  if (rec.island >= config_.num_islands) {
    report({"pic.island_index", rec.time_s, rec.island,
            "island out of range (num_islands=" +
                std::to_string(config_.num_islands) + ")"});
    return;  // the per-island state below would be out of bounds
  }
  if (!(rec.sensed_w >= 0.0)) {
    report({"pic.sensed_nonneg", rec.time_s, rec.island,
            "sensed_w=" + fmt(rec.sensed_w)});
  }
  if (!(rec.utilization >= 0.0 && rec.utilization <= 1.0 + 1e-12)) {
    report({"pic.utilization_range", rec.time_s, rec.island,
            "utilization=" + fmt(rec.utilization)});
  }
  if (config_.dvfs) {
    const sim::DvfsTable& table = *config_.dvfs;
    const double tol = config_.freq_tol_ghz;
    if (rec.freq_ghz < table.min_freq().value() - tol ||
        rec.freq_ghz > table.max_freq().value() + tol) {
      report({"pic.freq_bounds", rec.time_s, rec.island,
              "freq_ghz=" + fmt(rec.freq_ghz) + " outside [" +
                  fmt(table.min_freq().value()) + ", " +
                  fmt(table.max_freq().value()) + "]"});
    } else if (rec.dvfs_level >= table.num_levels()) {
      report({"pic.level_index", rec.time_s, rec.island,
              "level=" + std::to_string(rec.dvfs_level) + " of " +
                  std::to_string(table.num_levels())});
    } else if (std::abs(rec.freq_ghz - table.level(rec.dvfs_level).freq_ghz) >
               tol) {
      // The actuator quantizes every request onto a table level, so the
      // recorded frequency must be exactly its recorded level's frequency.
      report({"pic.freq_quantized", rec.time_s, rec.island,
              "freq_ghz=" + fmt(rec.freq_ghz) + " but level " +
                  std::to_string(rec.dvfs_level) + " is " +
                  fmt(table.level(rec.dvfs_level).freq_ghz) + " GHz"});
    }
    if (config_.check_freq_step && std::isfinite(prev_freq_ghz_[rec.island])) {
      // The PID clamps the *continuous request* delta to max_step_ghz;
      // quantization of both endpoints can add at most one adjacent-level
      // gap (half a gap per endpoint) on top of that.
      const double bound = config_.max_step_ghz + max_level_gap_ghz_ + tol;
      const double step = std::abs(rec.freq_ghz - prev_freq_ghz_[rec.island]);
      if (step > bound) {
        report({"pic.freq_step", rec.time_s, rec.island,
                "|df|=" + fmt(step) + " > " + fmt(bound) + " (prev=" +
                    fmt(prev_freq_ghz_[rec.island]) + ", now=" +
                    fmt(rec.freq_ghz) + ")"});
      }
    }
  }
  prev_freq_ghz_[rec.island] = rec.freq_ghz;
}

void InvariantChecker::check_gpm(const GpmIntervalRecord& rec) {
  ++gpm_count_;
  if (rec.island_alloc_w.size() != config_.num_islands ||
      rec.island_actual_w.size() != config_.num_islands) {
    report({"gpm.record_arity", rec.time_s, InvariantViolation::kChipWide,
            "alloc/actual sizes " + std::to_string(rec.island_alloc_w.size()) +
                "/" + std::to_string(rec.island_actual_w.size()) +
                " != num_islands " + std::to_string(config_.num_islands)});
    return;
  }
  if (!(rec.chip_budget_w > 0.0)) {
    report({"gpm.budget_positive", rec.time_s, InvariantViolation::kChipWide,
            "chip_budget_w=" + fmt(rec.chip_budget_w)});
  }
  double alloc_sum = 0.0;
  double actual_sum = 0.0;
  for (std::size_t i = 0; i < config_.num_islands; ++i) {
    const double a = rec.island_alloc_w[i];
    if (!(a >= 0.0)) {
      report({"gpm.alloc_nonneg", rec.time_s, i, "alloc_w=" + fmt(a)});
    }
    alloc_sum += a;
    actual_sum += rec.island_actual_w[i];
  }
  if (alloc_sum > rec.chip_budget_w * (1.0 + config_.budget_rel_tol)) {
    report({"gpm.budget_sum", rec.time_s, InvariantViolation::kChipWide,
            "sum(alloc)=" + fmt(alloc_sum) + " > budget=" +
                fmt(rec.chip_budget_w)});
  }
  if (!close(actual_sum, rec.chip_actual_w, 1e-9, 1e-12)) {
    report({"gpm.actual_sum", rec.time_s, InvariantViolation::kChipWide,
            "sum(island_actual)=" + fmt(actual_sum) + " != chip_actual_w=" +
                fmt(rec.chip_actual_w)});
  }
  if (shadow_thermal_ &&
      shadow_thermal_->record(rec.island_alloc_w,
                              units::Watts{rec.chip_budget_w})) {
    report({"thermal.streak", rec.time_s, InvariantViolation::kChipWide,
            "recorded allocation completes a cap-violation streak the "
            "thermal policy should have clamped"});
  }
  power_sum_ += static_cast<long double>(rec.chip_actual_w);
  bips_sum_ += static_cast<long double>(rec.chip_bips);
  shadow_tracking_.add(rec);
}

void InvariantChecker::check_aggregates(const RecordSink& sink) {
  if (sink.pic_records_seen() != pic_count_ ||
      sink.gpm_records_seen() != gpm_count_) {
    report({"sink.record_counts", 0.0, InvariantViolation::kChipWide,
            "sink saw " + std::to_string(sink.pic_records_seen()) + "/" +
                std::to_string(sink.gpm_records_seen()) +
                " pic/gpm records, checker " + std::to_string(pic_count_) +
                "/" + std::to_string(gpm_count_)});
    return;
  }
  if (gpm_count_ == 0) return;
  const double exact_power =
      static_cast<double>(power_sum_ / static_cast<long double>(gpm_count_));
  const double exact_bips =
      static_cast<double>(bips_sum_ / static_cast<long double>(gpm_count_));
  if (!close(sink.gpm_power_stats().mean(), exact_power, 1e-9, 1e-12)) {
    report({"sink.power_mean", 0.0, InvariantViolation::kChipWide,
            "Welford mean " + fmt(sink.gpm_power_stats().mean()) +
                " vs exact " + fmt(exact_power)});
  }
  if (!close(sink.gpm_bips_stats().mean(), exact_bips, 1e-9, 1e-12)) {
    report({"sink.bips_mean", 0.0, InvariantViolation::kChipWide,
            "Welford mean " + fmt(sink.gpm_bips_stats().mean()) +
                " vs exact " + fmt(exact_bips)});
  }
  // The sink's tracking accumulator saw the identical record sequence, so
  // a freshly replayed accumulator must agree to the last bit.
  const ChipTrackingMetrics got = sink.tracking().metrics();
  const ChipTrackingMetrics want = shadow_tracking_.metrics();
  if (got.max_overshoot != want.max_overshoot ||
      got.max_undershoot != want.max_undershoot ||
      got.mean_abs_error != want.mean_abs_error ||
      got.mean_power_w != want.mean_power_w) {
    report({"sink.tracking", 0.0, InvariantViolation::kChipWide,
            "sink tracking metrics diverge from shadow replay (overshoot " +
                fmt(got.max_overshoot) + " vs " + fmt(want.max_overshoot) +
                ", mean power " + fmt(got.mean_power_w) + " vs " +
                fmt(want.mean_power_w) + ")"});
  }
}

std::string InvariantChecker::summary() const {
  std::ostringstream ss;
  ss << "invariants: " << pic_count_ << " PIC + " << gpm_count_
     << " GPM records checked, " << violations_.size() << " violation"
     << (violations_.size() == 1 ? "" : "s");
  const std::size_t show = std::min<std::size_t>(violations_.size(), 3);
  for (std::size_t i = 0; i < show; ++i) {
    ss << "\n  " << violations_[i].to_string();
  }
  if (violations_.size() > show) {
    ss << "\n  ... and " << violations_.size() - show << " more";
  }
  return ss.str();
}

CheckingSink::CheckingSink(InvariantChecker& checker, RecordSink& inner)
    : checker_(&checker), inner_(&inner) {}

CheckingSink::CheckingSink(InvariantChecker& checker,
                           std::unique_ptr<RecordSink> inner)
    : checker_(&checker), owned_inner_(std::move(inner)),
      inner_(owned_inner_.get()) {}

void CheckingSink::on_pic(const PicIntervalRecord& rec) {
  checker_->check_pic(rec);
  inner_->record_pic(rec);
}

void CheckingSink::on_gpm(const GpmIntervalRecord& rec) {
  checker_->check_gpm(rec);
  inner_->record_gpm(rec);
}

void CheckingSink::on_finish(SimulationResult& result) {
  checker_->check_aggregates(*this);
  util::MetricsRegistry& registry = util::MetricsRegistry::global();
  registry.add("invariants.pic_checked", pic_records_seen());
  registry.add("invariants.gpm_checked", gpm_records_seen());
  registry.add("invariants.violations", checker_->violations().size());
  inner_->finish(result);
}

InvariantCheckerConfig checker_config_for(const Simulation& sim) {
  const SimulationConfig& c = sim.config();
  InvariantCheckerConfig cc;
  cc.num_islands = c.cmp.num_islands;
  cc.dvfs = c.cmp.dvfs;
  cc.check_freq_step = c.manager == ManagerKind::kCpm;
  cc.max_step_ghz = c.pic_max_step_ghz;
  if (c.manager == ManagerKind::kCpm && c.policy == PolicyKind::kThermal) {
    cc.thermal = resolved_thermal_constraints(c);
  }
  return cc;
}

}  // namespace cpm::core
