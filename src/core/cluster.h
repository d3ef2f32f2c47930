// Cluster-level power coordination: the third tier of the decoupled
// hierarchy. The paper's two tiers stop at one chip (GPM provisions islands,
// PICs enforce); a ClusterPowerManager applies the same provision-then-cap
// contract one level up again -- a facility budget is split across N chips in
// proportion to each chip's smoothed measured efficiency, while every chip's
// own GPM+PICs (a full Simulation) keep enforcing the per-chip budget they
// are handed. Two extensions ground the tier in the cluster-power literature
// (PAPERS.md):
//   * ClusterObjective::kEnergyOptimal weights the split by efficiency^2 so
//     provisioning steers chips toward their energy-optimal operating points
//     (throughput per joule, not raw throughput) -- the single-node
//     energy-optimal-configuration result generalized across nodes.
//   * ClusterConfig::integral_gain enables an adjustable-gain integral
//     controller on the facility budget itself (Chen/Wardi/Yalamanchili):
//     the provisioned budget is trimmed by the integrated power-tracking
//     error, with the loop gain normalized by an online estimate of the
//     budget->power slope so the controller stays fast on compliant
//     workloads and stable on saturating ones.
//
// Scale: each epoch advances the chips in tasks across threads
// (util::parallel_for_shards), each chip writing only its own observation;
// the epoch power is then summed in chip order on the calling thread, so a
// 1000-chip run is bit-identical at any thread count and shard size. The
// task plan follows the workers that run the epoch (util::parallel_workers):
// on one worker -- one thread, or a run nested in a pool task -- a single
// task covers the fleet; on more, each task is a shard of `shard_size`
// chips. Within a task, each maximal run of consecutive chips with one plant
// configuration (same_plant), up to kMaxLockstepChips, runs as one RunBatch:
// its ticks go through one batched ChipPlant in lockstep, so each per-core
// kernel runs once over the batch instead of once per small chip. Records
// and results are the same on either plan; trace span counts are not (one
// SimulationRun::advance per batch, one parallel_map.shard per task).
// Memory: each chip streams its per-interval records through a
// core/record_sink.h sink (bounded by default), and the cluster's own epoch
// series is stride-decimated once it exceeds `epoch_capacity` -- the whole
// run holds O(capacity) records no matter how long it is.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/record_sink.h"
#include "core/simulation.h"
#include "util/stats.h"

namespace cpm::core {

/// Most chips one cluster lockstep batch steps together. Wider batches
/// measured no faster than 16 chips, and 16 keeps a default-sized shard
/// (util::kDefaultShardSize) one batch.
inline constexpr std::size_t kMaxLockstepChips = 16;

/// How the cluster splits its budget across chips each epoch.
enum class ClusterObjective {
  /// Share proportional to (smoothed efficiency x chip max power): the rack
  /// contract, maximizing cluster throughput under the budget.
  kEfficiency,
  /// Share proportional to (smoothed efficiency^2 x chip max power): squares
  /// the BIPS-per-watt term so power flows to the chips that turn marginal
  /// watts into the most throughput per joule -- the energy-optimal split.
  kEnergyOptimal,
};

struct ClusterConfig {
  /// Cluster budget as a fraction of the sum of the chips' max powers.
  double budget_fraction = 0.75;
  /// Re-provisioning epoch, seconds. Must be at least every chip's GPM
  /// interval (5 ms at the paper design point) for the chips' last-window
  /// observables to refresh between epochs; the constructor enforces it.
  double epoch_s = 0.025;
  /// Smoothing of the per-chip efficiency estimate (EWMA weight on the new
  /// observation).
  double efficiency_smoothing = 0.5;
  /// Per-chip share floor as a fraction of the cluster budget. Must satisfy
  /// min_share * num_chips <= 1 (rejected otherwise -- an infeasible floor
  /// would silently over-commit the budget).
  double min_share = 0.0;
  ClusterObjective objective = ClusterObjective::kEfficiency;
  /// Gain of the adjustable-gain integral trim on the provisioned budget
  /// (0 = open-loop provisioning, the rack behaviour). The effective gain
  /// each epoch is integral_gain divided by the online budget->power slope
  /// estimate, so tracking speed is independent of how compliant the
  /// workload is.
  double integral_gain = 0.0;
  /// Clamp on the integral trim, as a fraction of the nominal budget.
  double trim_limit = 0.2;
  /// Worker threads for the per-epoch chip advance (0 = hardware
  /// concurrency). Results are bit-identical at any value.
  std::size_t threads = 0;
  /// Chips per parallel task when the epoch runs on more than one worker
  /// (>= 1). There it also bounds the lockstep width: a shard's consecutive
  /// chips of one plant configuration step through one batched plant. On
  /// one worker the fleet is one task and the value is unused. Results are
  /// bit-identical at any value.
  std::size_t shard_size = 16;
  /// Keep each chip's full SimulationResult in ClusterResult::chip_results.
  /// Off by default: at cluster scale the per-chip stats are the product and
  /// the traces live in the sinks.
  bool keep_chip_results = false;
  /// Retained cluster epoch-series capacity: 0 (unbounded) or at least 2
  /// (1 is rejected). When the series outgrows this, it is stride-decimated
  /// exactly like a BoundedSink kDecimate stream (keep every 2^k-th epoch) so
  /// it always spans the run; exact aggregates stay in epoch_power_stats.
  std::size_t epoch_capacity = 0;
  /// Per-chip record sink factory (chip index -> sink). Defaults to a
  /// BoundedSink with default capacities, giving the O(capacity) memory
  /// bound; supply InMemorySink to keep full traces or a streaming sink to
  /// spill them to disk.
  std::function<std::unique_ptr<RecordSink>(std::size_t)> sink_factory;
};

/// Per-chip summary of a cluster run (exact, independent of sink bounding).
struct ClusterChipStats {
  double budget_w = 0.0;      // final per-chip budget
  double max_power_w = 0.0;   // chip's own scale
  double mean_power_w = 0.0;
  double mean_bips = 0.0;
  double instructions = 0.0;
  double efficiency = 0.0;    // final smoothed BIPS/W estimate
  /// Records the chip's sink saw vs retained (retained <= capacity for
  /// bounded sinks -- the memory-bound witness).
  std::size_t pic_records_seen = 0;
  std::size_t pic_records_retained = 0;
  std::size_t gpm_records_seen = 0;
  std::size_t gpm_records_retained = 0;
};

struct ClusterResult {
  double cluster_budget_w = 0.0;      // nominal (fraction x total max)
  double provisioned_budget_w = 0.0;  // final budget incl. integral trim
  double total_power_w = 0.0;         // mean of summed chip power per epoch
  double total_instructions = 0.0;
  std::size_t epochs = 0;
  std::size_t chips_simulated = 0;

  /// Exact aggregates over every epoch's summed chip power.
  util::RunningStats epoch_power_stats;
  /// Cluster power / provisioned budget per retained epoch. With
  /// epoch_capacity = 0 these hold every epoch; otherwise every
  /// `epoch_stride`-th one.
  std::vector<double> epoch_power_w;
  std::vector<double> epoch_budget_w;
  std::size_t epoch_stride = 1;

  std::vector<ClusterChipStats> chips;
  /// Full per-chip results; only populated with keep_chip_results.
  std::vector<SimulationResult> chip_results;

  /// Cluster-tier invariant checking (budget sum, per-chip bounds, share
  /// floor, finite power), evaluated every epoch.
  std::size_t invariant_checks = 0;
  std::size_t invariant_violations = 0;
  std::string first_violation;
};

class ClusterPowerManager {
 public:
  /// Takes ownership of the chips' Simulations (each already calibrated).
  /// Throws std::invalid_argument on an empty/null chip set or an infeasible
  /// config (see ClusterConfig field docs).
  ClusterPowerManager(const ClusterConfig& config,
                      std::vector<std::unique_ptr<Simulation>> chips);

  /// Runs all chips for `duration_s`, re-provisioning the cluster budget at
  /// every epoch boundary. Bit-identical at any `threads` and `shard_size`.
  ClusterResult run(double duration_s);

  double cluster_budget_w() const noexcept { return cluster_budget_w_; }
  std::size_t num_chips() const noexcept { return chips_.size(); }

 private:
  ClusterConfig config_;
  std::vector<std::unique_ptr<Simulation>> chips_;
  double cluster_budget_w_ = 0.0;
  double total_max_power_w_ = 0.0;
};

/// Builds `num_chips` chip Simulations from a base config: per-chip seeds
/// (and, with `vary_mixes`, per-chip random island assignments over the
/// PARSEC+SPEC profile pool) are drawn serially in chip order, the chips of
/// shard s of util::ShardPlan{num_chips, util::kDefaultShardSize} from
/// util::shard_stream(seed, s); each shard's chips then calibrate in
/// lockstep (calibrate_chips), the shards in parallel across `threads`.
/// Deterministic in (base, num_chips, seed) -- the thread count never
/// changes the fleet, and each chip's calibration is the one
/// Simulation(chip->config()) computes.
std::vector<std::unique_ptr<Simulation>> make_cluster_chips(
    const SimulationConfig& base, std::size_t num_chips, std::uint64_t seed,
    bool vary_mixes = true, std::size_t threads = 0);

}  // namespace cpm::core
