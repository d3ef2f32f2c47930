#include "core/maxbips.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace cpm::core {

MaxBipsManager::MaxBipsManager(const MaxBipsConfig& config,
                               units::Watts budget)
    : config_(config), budget_(budget) {
  if (budget_ <= units::Watts{0.0}) {
    throw std::invalid_argument("MaxBipsManager: budget must be > 0");
  }
  if (config_.power_bins < 8) {
    throw std::invalid_argument("MaxBipsManager: too few power bins");
  }
}

void MaxBipsManager::set_budget(units::Watts budget) {
  if (budget <= units::Watts{0.0}) {
    throw std::invalid_argument("MaxBipsManager: budget must be > 0");
  }
  budget_ = budget;
}

double MaxBipsManager::predict_bips(const IslandObservation& obs,
                                    const sim::DvfsTable& dvfs,
                                    std::size_t level) {
  const auto& cur = dvfs.level(std::min(obs.dvfs_level, dvfs.max_level()));
  const auto& tgt = dvfs.level(level);
  // MaxBIPS's optimistic model: performance scales linearly with frequency.
  return obs.bips * tgt.freq_ghz / cur.freq_ghz;
}

units::Watts MaxBipsManager::predict_power(const IslandObservation& obs,
                                           const sim::DvfsTable& dvfs,
                                           std::size_t level) {
  const auto& cur = dvfs.level(std::min(obs.dvfs_level, dvfs.max_level()));
  const auto& tgt = dvfs.level(level);
  const double cur_fv2 = cur.dynamic_energy_scale();
  const double tgt_fv2 = tgt.dynamic_energy_scale();
  // Dynamic power scales with f V^2; the static (leakage) share, when the
  // characterization provides it, only scales with V. Folding leakage into
  // the f V^2 scaling would underestimate low-level power and let the
  // open-loop scheme overshoot tight budgets.
  const double leak = std::min(obs.leakage_w, obs.power_w);
  const double dyn = obs.power_w - leak;
  return units::Watts{dyn * tgt_fv2 / cur_fv2 +
                      leak * tgt.voltage / cur.voltage};
}

MaxBipsManager::IslandKey MaxBipsManager::key_of(
    const IslandObservation& obs) noexcept {
  return {std::bit_cast<std::uint64_t>(obs.bips),
          std::bit_cast<std::uint64_t>(obs.power_w),
          std::bit_cast<std::uint64_t>(obs.leakage_w), obs.dvfs_level};
}

bool MaxBipsManager::same_inputs(
    std::span<const IslandObservation> observations) const {
  if (solves_ == 0 || observations.size() != solved_key_.size() ||
      std::bit_cast<std::uint64_t>(budget_.value()) != solved_budget_) {
    return false;
  }
  for (std::size_t i = 0; i < observations.size(); ++i) {
    if (key_of(observations[i]) != solved_key_[i]) return false;
  }
  return true;
}

const std::vector<std::size_t>& MaxBipsManager::choose_levels(
    std::span<const IslandObservation> observations) {
  if (same_inputs(observations)) return levels_;
  solved_budget_ = std::bit_cast<std::uint64_t>(budget_.value());
  solved_key_.resize(observations.size());
  for (std::size_t i = 0; i < observations.size(); ++i) {
    solved_key_[i] = key_of(observations[i]);
  }
  solve(observations);
  ++solves_;
  return levels_;
}

void MaxBipsManager::solve(std::span<const IslandObservation> observations) {
  const std::size_t n = observations.size();
  const std::size_t levels = config_.dvfs.num_levels();
  const std::size_t bins = config_.power_bins;
  levels_.assign(n, 0);
  if (n == 0) return;

  // Precompute per-island per-level (bips, power-bin cost). Costs are rounded
  // *up* so the DP never underestimates power (the budget is a hard cap). A
  // level whose predicted power is not a finite, non-negative number (a
  // non-finite or negative observation) or needs more than every bin costs
  // bins + 1: it is never affordable, and the float -> size_t cast below only
  // sees values it can represent.
  const double bin_w = budget_.value() / static_cast<double>(bins);
  pred_bips_.resize(n * levels);
  pred_cost_.resize(n * levels);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < levels; ++l) {
      pred_bips_[i * levels + l] =
          predict_bips(observations[i], config_.dvfs, l);
      const double p =
          predict_power(observations[i], config_.dvfs, l).value();
      const double cost = std::ceil(p / bin_w - 1e-12);
      pred_cost_[i * levels + l] =
          p >= 0.0 && cost <= static_cast<double>(bins)
              ? static_cast<std::size_t>(cost)
              : bins + 1;
    }
  }

  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  // dp[b] = best total BIPS for islands 0..i using exactly budget bins <= b
  // (we track "total cost == b" and take the max at the end via running max).
  // dp_ needs the kNegInf reset every call; choice_ does not (the backward
  // walk only reads entries along a finite-dp chain, and every finite
  // dp_[(i+1), nb] wrote choice_[(i), nb] when it was set).
  const std::size_t stride = bins + 1;
  dp_.assign((n + 1) * stride, kNegInf);
  choice_.resize(n * stride);
  dp_[0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* dp_row = dp_.data() + i * stride;
    double* dp_next = dp_.data() + (i + 1) * stride;
    std::size_t* choice_row = choice_.data() + i * stride;
    const double* bips_row = pred_bips_.data() + i * levels;
    const std::size_t* cost_row = pred_cost_.data() + i * levels;
    for (std::size_t b = 0; b <= bins; ++b) {
      if (dp_row[b] == kNegInf) continue;
      for (std::size_t l = 0; l < levels; ++l) {
        const std::size_t nb = b + cost_row[l];
        if (nb > bins) continue;
        const double v = dp_row[b] + bips_row[l];
        if (v > dp_next[nb]) {
          dp_next[nb] = v;
          choice_row[nb] = l;
        }
      }
    }
  }

  // Best final bin; if nothing fits (pathological budget), fall back to the
  // lowest level everywhere.
  std::size_t best_bin = bins + 1;
  double best = kNegInf;
  const double* dp_last = dp_.data() + n * stride;
  for (std::size_t b = 0; b <= bins; ++b) {
    if (dp_last[b] > best) {
      best = dp_last[b];
      best_bin = b;
    }
  }
  if (best_bin > bins) return;

  // Walk the DP backwards: `choice_[i][b]` is the level island i took in the
  // best chain landing on bin b (dp row i is finalized before stage i's
  // transitions run, so the chain is consistent).
  std::size_t b = best_bin;
  for (std::size_t i = n; i-- > 0;) {
    const std::size_t picked = choice_[i * stride + b];
    levels_[i] = picked;
    b -= pred_cost_[i * levels + picked];
  }
}

}  // namespace cpm::core
