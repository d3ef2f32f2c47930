#include "core/cluster.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/perf_policy.h"
#include "util/parallel.h"
#include "util/trace.h"
#include "workload/profile.h"

namespace cpm::core {
namespace {

/// One chip's per-epoch observables, written only by the task that advanced
/// the chip.
struct ChipObservation {
  double power_w = 0.0;
  double bips = 0.0;
};

}  // namespace

ClusterPowerManager::ClusterPowerManager(
    const ClusterConfig& config, std::vector<std::unique_ptr<Simulation>> chips)
    : config_(config), chips_(std::move(chips)) {
  if (chips_.empty()) {
    throw std::invalid_argument("ClusterPowerManager: no chips");
  }
  for (const auto& chip : chips_) {
    if (!chip) throw std::invalid_argument("ClusterPowerManager: null chip");
  }
  if (!(config_.budget_fraction > 0.0 && config_.budget_fraction <= 1.0)) {
    throw std::invalid_argument(
        "ClusterPowerManager: budget fraction out of (0,1]");
  }
  if (!(config_.epoch_s > 0.0) || !std::isfinite(config_.epoch_s)) {
    throw std::invalid_argument(
        "ClusterPowerManager: epoch must be positive and finite");
  }
  for (const auto& chip : chips_) {
    // A shorter epoch can end before the chip completes a GPM window, so its
    // last-window power would be stale (or 0 W before the first window).
    if (config_.epoch_s < chip->config().cmp.gpm_interval_s) {
      throw std::invalid_argument(
          "ClusterPowerManager: epoch shorter than a chip GPM interval");
    }
  }
  if (!(config_.efficiency_smoothing >= 0.0 &&
        config_.efficiency_smoothing <= 1.0)) {
    throw std::invalid_argument(
        "ClusterPowerManager: efficiency smoothing out of [0,1]");
  }
  if (!(config_.min_share >= 0.0 && config_.min_share < 1.0)) {
    throw std::invalid_argument("ClusterPowerManager: min share out of [0,1)");
  }
  if (config_.min_share * static_cast<double>(chips_.size()) > 1.0) {
    throw std::invalid_argument(
        "ClusterPowerManager: infeasible share floor (min_share * num_chips > "
        "1 would over-commit the cluster budget)");
  }
  if (!(config_.integral_gain >= 0.0)) {
    throw std::invalid_argument(
        "ClusterPowerManager: integral gain must be non-negative");
  }
  if (!(config_.trim_limit >= 0.0 && config_.trim_limit <= 1.0)) {
    throw std::invalid_argument("ClusterPowerManager: trim limit out of [0,1]");
  }
  if (config_.shard_size == 0) {
    throw std::invalid_argument("ClusterPowerManager: shard size must be >= 1");
  }
  if (config_.epoch_capacity == 1) {
    throw std::invalid_argument(
        "ClusterPowerManager: epoch capacity must be 0 (unbounded) or >= 2");
  }
  for (const auto& chip : chips_) {
    total_max_power_w_ += chip->max_chip_power().value();
  }
  cluster_budget_w_ = config_.budget_fraction * total_max_power_w_;
}

ClusterResult ClusterPowerManager::run(double duration_s) {
  if (!(duration_s > 0.0) || !std::isfinite(duration_s)) {
    throw std::invalid_argument(
        "ClusterPowerManager::run: duration must be positive");
  }
  // The rounded epoch count below is cast to std::size_t.
  const double epoch_count = duration_s / config_.epoch_s + 0.5;
  if (!(epoch_count <
        static_cast<double>(std::numeric_limits<std::size_t>::max()))) {
    throw std::invalid_argument(
        "ClusterPowerManager::run: duration exceeds the representable epoch "
        "count");
  }
  const std::size_t k = chips_.size();

  // Per-chip sinks must outlive their runs.
  std::vector<std::unique_ptr<RecordSink>> sinks;
  sinks.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    sinks.push_back(config_.sink_factory
                        ? config_.sink_factory(c)
                        : std::make_unique<BoundedSink>());
    if (!sinks.back()) {
      throw std::invalid_argument(
          "ClusterPowerManager: sink factory returned null");
    }
  }

  // The task plan follows the workers that will run the epoch: one worker
  // (one thread, or a run nested in a pool task, which runs inline) gets a
  // single task over the fleet; more workers get shards of shard_size chips.
  // Each task's chips run as lockstep batches: every maximal run of
  // consecutive chips with one plant configuration, up to kMaxLockstepChips,
  // shares a ChipPlant.
  const std::size_t workers = util::parallel_workers(
      util::ShardPlan{k, config_.shard_size}.num_shards(), config_.threads);
  const util::ShardPlan plan{k, workers == 1 ? k : config_.shard_size};
  std::vector<RunBatch> batches;
  // Shard s owns batches [shard_batches[s], shard_batches[s + 1]).
  std::vector<std::size_t> shard_batches{0};
  std::vector<SimulationRun*> runs(k);
  std::vector<Simulation*> sims;
  std::vector<RecordSink*> sink_ptrs;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    for (std::size_t c = plan.begin(s); c < plan.end(s);) {
      const std::size_t last = std::min(plan.end(s), c + kMaxLockstepChips);
      std::size_t end = c + 1;
      while (end < last &&
             same_plant(chips_[end]->config(), chips_[c]->config())) {
        ++end;
      }
      sims.clear();
      sink_ptrs.clear();
      for (std::size_t m = c; m < end; ++m) {
        sims.push_back(chips_[m].get());
        sink_ptrs.push_back(sinks[m].get());
      }
      RunBatch& batch = batches.emplace_back(sims, sink_ptrs);
      for (std::size_t m = c; m < end; ++m) runs[m] = &batch.run(m - c);
      c = end;
    }
    shard_batches.push_back(batches.size());
  }
  std::vector<double> budgets(k);
  for (std::size_t c = 0; c < k; ++c) {
    // Initial split: proportional to each chip's max power (its "size").
    budgets[c] = cluster_budget_w_ * chips_[c]->max_chip_power().value() /
                 total_max_power_w_;
    runs[c]->set_budget(units::Watts{budgets[c]});
  }

  // Per-chip throughput-per-watt efficiency estimate (EWMA).
  std::vector<double> efficiency(k, 1.0);

  ClusterResult result;
  result.cluster_budget_w = cluster_budget_w_;
  result.chips_simulated = k;
  const std::size_t epochs = std::max<std::size_t>(
      1, static_cast<std::size_t>(epoch_count));
  result.epochs = epochs;

  auto check = [&result](bool ok, const char* what) {
    ++result.invariant_checks;
    if (!ok) {
      ++result.invariant_violations;
      if (result.first_violation.empty()) result.first_violation = what;
    }
  };

  // Adjustable-gain integral trim state (Chen/Wardi/Yalamanchili): the
  // provisioned budget tracks the nominal one through the integrated power
  // error, with the gain normalized by an online budget->power slope
  // estimate.
  double provisioned_w = cluster_budget_w_;
  double trim_w = 0.0;
  double slope_est = 1.0;
  double prev_provisioned_w = provisioned_w;
  double prev_power_w = -1.0;  // <0: no previous observation

  DecimatedSeries<double> power_series;
  DecimatedSeries<double> budget_series;
  power_series.capacity = budget_series.capacity = config_.epoch_capacity;

  // Epoch fast path: with the persistent thread pool a dispatch costs
  // condvar-wake time, so the remaining per-epoch overhead is allocation.
  // The shard plan, the per-chip observation slots and the provisioning
  // weights are allocated once and reused across all epochs.
  std::vector<ChipObservation> obs(k);
  std::vector<double> weight(k);
  std::vector<double> raw;
  for (std::size_t e = 0; e < epochs; ++e) {
    CPM_TRACE_SCOPE1("cluster", "cluster.epoch", "epoch", e);

    // Advance every chip by one epoch, a shard of chips per task, each
    // batch of the task in lockstep; each chip writes only its own
    // observation slot.
    util::parallel_for_shards(
        plan, workers,
        [&batches, &shard_batches, &runs, &obs, plan, this](std::size_t s) {
          for (std::size_t b = shard_batches[s]; b < shard_batches[s + 1];
               ++b) {
            batches[b].advance(config_.epoch_s);
          }
          for (std::size_t c = plan.begin(s); c < plan.end(s); ++c) {
            obs[c] = ChipObservation{runs[c]->last_window_power().value(),
                                     runs[c]->last_window_bips()};
          }
        });

    // Sum the epoch power in chip order on this thread, so the sum is the
    // same at any thread count and shard size, and update each chip's
    // efficiency (BIPS per watt over the last GPM window of the epoch);
    // chips idle below the power floor keep their estimate.
    double epoch_power_w = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      epoch_power_w += obs[c].power_w;
      if (obs[c].power_w > 1e-6) {
        const double eff = obs[c].bips / obs[c].power_w;
        efficiency[c] = config_.efficiency_smoothing * eff +
                        (1.0 - config_.efficiency_smoothing) * efficiency[c];
      }
    }

    check(std::isfinite(epoch_power_w) && epoch_power_w >= 0.0,
          "cluster epoch power must be finite and non-negative");
    result.epoch_power_stats.add(epoch_power_w);
    power_series.push(epoch_power_w);
    budget_series.push(provisioned_w);
    CPM_TRACE_COUNTER("cluster_power_w", "actual", epoch_power_w);
    if (e + 1 == epochs) break;  // nothing runs after the last epoch

    // Integral trim of the provisioned budget toward the nominal one.
    if (config_.integral_gain > 0.0) {
      if (prev_power_w >= 0.0 &&
          std::abs(provisioned_w - prev_provisioned_w) >
              1e-6 * cluster_budget_w_) {
        const double observed = (epoch_power_w - prev_power_w) /
                                (provisioned_w - prev_provisioned_w);
        slope_est = 0.5 * std::clamp(observed, 0.05, 5.0) + 0.5 * slope_est;
      }
      prev_provisioned_w = provisioned_w;
      prev_power_w = epoch_power_w;
      const double gain = config_.integral_gain / std::max(slope_est, 0.05);
      trim_w += gain * (cluster_budget_w_ - epoch_power_w);
      const double limit = config_.trim_limit * cluster_budget_w_;
      trim_w = std::clamp(trim_w, -limit, limit);
      provisioned_w =
          std::clamp(cluster_budget_w_ + trim_w, 0.0, total_max_power_w_);
    }

    // Re-provision: share proportional to the objective's weight, the
    // cluster-level analogue of the GPM's benefit weighting, with a floor.
    double weight_sum = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      const double eff_term = config_.objective == ClusterObjective::kEfficiency
                                  ? efficiency[c]
                                  : efficiency[c] * efficiency[c];
      weight[c] = eff_term * chips_[c]->max_chip_power().value();
      weight_sum += weight[c];
    }
    raw.assign(k, 0.0);
    for (std::size_t c = 0; c < k; ++c) {
      raw[c] = weight_sum > 0.0 ? provisioned_w * weight[c] / weight_sum
                                : provisioned_w / static_cast<double>(k);
    }
    budgets = apply_share_bounds(std::move(raw), units::Watts{provisioned_w},
                                 config_.min_share, 1.0);
    bool bounds_ok = true;
    bool floor_ok = true;
    double budget_sum = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      // Never hand a chip more than it can physically draw.
      const double chip_max = chips_[c]->max_chip_power().value();
      budgets[c] = std::min(budgets[c], chip_max);
      runs[c]->set_budget(units::Watts{budgets[c]});
      budget_sum += budgets[c];
      bounds_ok = bounds_ok && budgets[c] >= -1e-12 &&
                  budgets[c] <= chip_max + 1e-9;
      // The share floor may legitimately be cut by the chip-max cap.
      const double floor_w =
          std::min(config_.min_share * provisioned_w, chip_max);
      floor_ok = floor_ok && budgets[c] >= floor_w - 1e-9;
    }
    check(budget_sum <= provisioned_w * (1.0 + 1e-9) + 1e-9,
          "per-chip budgets must not exceed the provisioned cluster budget");
    check(bounds_ok, "per-chip budget out of [0, chip max]");
    check(floor_ok, "per-chip budget below the share floor");
  }

  result.provisioned_budget_w = provisioned_w;
  result.total_power_w =
      result.epoch_power_stats.sum() / static_cast<double>(epochs);
  result.epoch_power_w = std::move(power_series.values);
  result.epoch_budget_w = std::move(budget_series.values);
  result.epoch_stride = power_series.stride;

  for (std::size_t c = 0; c < k; ++c) {
    ClusterChipStats stats;
    stats.budget_w = budgets[c];
    stats.max_power_w = chips_[c]->max_chip_power().value();
    stats.mean_power_w = runs[c]->mean_power().value();
    stats.mean_bips = runs[c]->mean_bips();
    stats.efficiency = efficiency[c];
    SimulationResult chip_result = runs[c]->finish();
    stats.instructions = chip_result.total_instructions;
    stats.pic_records_seen = chip_result.pic_records_seen;
    stats.pic_records_retained = chip_result.pic_records.size();
    stats.gpm_records_seen = chip_result.gpm_records_seen;
    stats.gpm_records_retained = chip_result.gpm_records.size();
    result.total_instructions += stats.instructions;
    result.chips.push_back(stats);
    if (config_.keep_chip_results) {
      result.chip_results.push_back(std::move(chip_result));
    }
  }
  return result;
}

std::vector<std::unique_ptr<Simulation>> make_cluster_chips(
    const SimulationConfig& base, std::size_t num_chips, std::uint64_t seed,
    bool vary_mixes, std::size_t threads) {
  if (num_chips == 0) {
    throw std::invalid_argument("make_cluster_chips: num_chips must be >= 1");
  }
  const std::size_t islands = base.mix.num_islands();
  const std::size_t cores = base.mix.cores_per_island();
  std::vector<const workload::BenchmarkProfile*> pool;
  if (vary_mixes) {
    for (const auto& p : workload::parsec_profiles()) pool.push_back(&p);
    for (const auto& p : workload::spec_profiles()) pool.push_back(&p);
    for (const auto& p : workload::extra_parsec_profiles()) pool.push_back(&p);
  }
  // Seeds and mixes are drawn serially, shard by shard from each shard's RNG
  // stream, so the fleet is a pure function of (base, num_chips, seed); only
  // the calibrations run in parallel.
  std::vector<SimulationConfig> configs(num_chips, base);
  const util::ShardPlan plan{num_chips, util::kDefaultShardSize};
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    util::Xoshiro256pp rng = util::shard_stream(seed, s);
    for (std::size_t c = plan.begin(s); c < plan.end(s); ++c) {
      configs[c].seed = rng();
      if (!vary_mixes) continue;
      workload::Mix& mix = configs[c].mix;
      mix = workload::Mix{};
      mix.name = "cluster";
      for (std::size_t i = 0; i < islands; ++i) {
        workload::IslandAssignment island;
        for (std::size_t j = 0; j < cores; ++j) {
          island.push_back(pool[rng.uniform_int(pool.size())]);
        }
        mix.islands.push_back(std::move(island));
      }
    }
  }
  // Each shard's chips calibrate in lockstep (they share the base's plant
  // configuration), the shards in parallel; each task writes only its own
  // shard's chips.
  std::vector<std::unique_ptr<Simulation>> chips(num_chips);
  util::parallel_for_shards(
      plan, threads, [&configs, &chips, plan](std::size_t s) {
        const std::span<const SimulationConfig> shard(
            configs.data() + plan.begin(s), plan.end(s) - plan.begin(s));
        std::vector<ChipCalibration> calibrations = calibrate_chips(shard);
        for (std::size_t c = plan.begin(s); c < plan.end(s); ++c) {
          const ChipCalibration& cal = calibrations[c - plan.begin(s)];
          chips[c] = std::make_unique<Simulation>(
              std::move(configs[c]), cal.calibration, cal.max_chip_power);
        }
      });
  return chips;
}

}  // namespace cpm::core
