// Extension: cluster-tier scale. A facility budget is provisioned across
// hundreds of simulated chips by the ClusterPowerManager, with every epoch's
// chip advances sharded across hardware threads (each chip writes only its
// own observation; the epoch power is summed in chip order on the calling
// thread -- bit-identical at any thread count and shard size) and every chip
// streaming its records through a bounded sink, so the whole run holds
// O(capacity) records. The bench builds a >= 500-chip
// fleet (parallel calibration via make_cluster_chips), runs it under the
// efficiency objective with the adjustable-gain integral trim enabled, and
// checks the cluster-tier invariants, the bounded-memory guarantees, and
// budget tracking.
//
// Short-epoch mode (--short): a dispatch-bound configuration -- a small
// fleet, shard_size 1, up to 16-way parallelism (capped at the host's
// threads, or CPM_THREADS), and millisecond epochs -- so per-epoch dispatch
// overhead dominates the sharded sim work. On a one-worker host (or
// CPM_THREADS=1) there is nothing to dispatch: the fleet runs as one task,
// stepping its 16 chips as one lockstep batch. Its shape
// checks are the same as the full run's; the dispatch cost itself is timed
// by the fleet_short workload of bench/e2e (see bench/e2e/README.md).
//
//   bench_ext_cluster [--short] [chips] [duration_s]
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "bench_util.h"
#include "core/cluster.h"
#include "core/experiment.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace cpm;
  const bool short_mode = argc > 1 && std::strcmp(argv[1], "--short") == 0;
  const int pos = short_mode ? 1 : 0;  // positional args shift past the flag
  const std::size_t num_chips =
      argc > pos + 1 ? static_cast<std::size_t>(std::atol(argv[pos + 1]))
                     : (short_mode ? 16 : 512);
  const double duration_s =
      argc > pos + 2 ? std::atof(argv[pos + 2]) : (short_mode ? 2.0 : 0.25);
  bench::header("Ext", short_mode
                           ? "cluster tier: short-epoch dispatch overhead"
                           : "cluster tier: sharded multi-chip provisioning");

  // Small heterogeneous nodes: 2 islands x 2 cores, per-chip seeds and
  // mixes drawn serially from per-shard RNG streams; calibration runs in
  // parallel.
  core::SimulationConfig base = core::default_config(1.0, 1);
  base.cmp.num_islands = 2;
  base.cmp.cores_per_island = 2;
  base.mix = workload::mix1_regrouped(2);
  base.mix.islands.resize(2);
  if (short_mode) {
    // Scaled-down control intervals (same 10:1 ratio as the paper design
    // point) make each epoch's sim work tiny, so the per-epoch parallel
    // dispatch is what this mode times.
    base.cmp.gpm_interval_s = 1e-3;
    base.cmp.pic_interval_s = 1e-4;
  }
  base.calibration_seconds = 40.0 * base.cmp.pic_interval_s;
  auto chips = core::make_cluster_chips(base, num_chips, /*seed=*/7,
                                        /*vary_mixes=*/true);

  core::ClusterConfig cfg;
  cfg.budget_fraction = 0.75;
  cfg.epoch_s = base.cmp.gpm_interval_s;
  cfg.integral_gain = 0.1;
  cfg.epoch_capacity = 64;
  if (short_mode) {
    // One chip per shard at up to 16-way parallelism (never more threads
    // than the host has): every epoch pays one full-width dispatch, the
    // worst case for dispatch overhead.
    cfg.shard_size = 1;
    cfg.threads = util::default_thread_count(16);
  }
  core::ClusterPowerManager cluster(cfg, std::move(chips));
  const double budget = cluster.cluster_budget_w();
  std::printf("  fleet: %zu chips, cluster budget %.0f W\n", num_chips,
              budget);

  const core::ClusterResult res = cluster.run(duration_s);

  util::AsciiTable table({"epochs", "chips", "power (W)", "budget (W)",
                          "checks", "violations"});
  table.add_row({std::to_string(res.epochs),
                 std::to_string(res.chips_simulated),
                 util::AsciiTable::num(res.total_power_w, 1),
                 util::AsciiTable::num(res.cluster_budget_w, 1),
                 std::to_string(res.invariant_checks),
                 std::to_string(res.invariant_violations)});
  table.print(std::cout);

  bool ok = res.chips_simulated >= (short_mode ? 16u : 500u) &&
            res.invariant_violations == 0;
  // Bounded memory: the epoch series is capped and every chip's sink
  // retained at most its capacity while counting everything it saw.
  if (res.epoch_power_w.size() > cfg.epoch_capacity) ok = false;
  if (res.epoch_power_stats.count() != res.epochs) ok = false;
  std::size_t max_retained = 0;
  for (const auto& chip : res.chips) {
    max_retained = std::max(max_retained, chip.pic_records_retained);
    if (chip.pic_records_retained > chip.pic_records_seen) ok = false;
  }
  if (max_retained > core::BoundedSinkConfig{}.pic_capacity) ok = false;
  // Tracking: the last epoch's cluster power lands near the budget.
  if (!res.epoch_power_w.empty() &&
      res.epoch_power_w.back() > budget * 1.15) {
    ok = false;
  }

  bench::note("epoch power summed in chip order: bit-identical at any thread");
  bench::note("count and shard size; bounded sinks hold O(capacity) records");
  return ok ? 0 : 1;
}
