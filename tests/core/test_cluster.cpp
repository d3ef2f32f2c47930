#include "core/cluster.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/trace.h"
#include "util/units.h"
#include "workload/mixes.h"
#include "workload/profile.h"

namespace cpm::core {
namespace {

std::vector<std::unique_ptr<Simulation>> make_chips(std::size_t count,
                                                    std::uint64_t seed = 3) {
  std::vector<std::unique_ptr<Simulation>> chips;
  for (std::size_t c = 0; c < count; ++c) {
    SimulationConfig cfg = default_config(1.0, seed + c);
    if (c % 2 == 1) cfg.mix = workload::mix2();
    chips.push_back(std::make_unique<Simulation>(cfg));
  }
  return chips;
}

TEST(Cluster, RejectsBadConstruction) {
  EXPECT_THROW(ClusterPowerManager(ClusterConfig{}, {}),
               std::invalid_argument);
  ClusterConfig bad;
  bad.budget_fraction = 1.5;
  EXPECT_THROW(ClusterPowerManager(bad, make_chips(1)),
               std::invalid_argument);
  ClusterConfig bad2;
  bad2.epoch_s = -0.01;
  EXPECT_THROW(ClusterPowerManager(bad2, make_chips(1)),
               std::invalid_argument);
  ClusterConfig bad3;
  bad3.efficiency_smoothing = 1.5;
  EXPECT_THROW(ClusterPowerManager(bad3, make_chips(1)),
               std::invalid_argument);
  ClusterConfig bad4;
  bad4.integral_gain = -0.1;
  EXPECT_THROW(ClusterPowerManager(bad4, make_chips(1)),
               std::invalid_argument);
  ClusterConfig bad5;
  bad5.trim_limit = 2.0;
  EXPECT_THROW(ClusterPowerManager(bad5, make_chips(1)),
               std::invalid_argument);
  ClusterConfig bad6;
  bad6.shard_size = 0;
  EXPECT_THROW(ClusterPowerManager(bad6, make_chips(1)),
               std::invalid_argument);
  // An epoch shorter than a chip's GPM interval would read a stale window;
  // exactly one interval is the shortest valid epoch.
  ClusterConfig bad7;
  bad7.epoch_s = 0.001;
  EXPECT_THROW(ClusterPowerManager(bad7, make_chips(1)),
               std::invalid_argument);
  // A one-slot epoch series cannot span the run (BoundedSink's rule).
  ClusterConfig bad8;
  bad8.epoch_capacity = 1;
  EXPECT_THROW(ClusterPowerManager(bad8, make_chips(1)),
               std::invalid_argument);
  auto chips = make_chips(1);
  ClusterConfig one_window;
  one_window.epoch_s = chips.front()->config().cmp.gpm_interval_s;
  EXPECT_NO_THROW(ClusterPowerManager(one_window, std::move(chips)));
}

// A NaN field must fail its range check: each is written as a negated
// in-range test, which NaN cannot pass.
TEST(Cluster, RejectsNanBudgetFraction) {
  ClusterConfig bad;
  bad.budget_fraction = std::nan("");
  EXPECT_THROW(ClusterPowerManager(bad, make_chips(1)), std::invalid_argument);
}

TEST(Cluster, RejectsNanEpoch) {
  ClusterConfig bad;
  bad.epoch_s = std::nan("");
  EXPECT_THROW(ClusterPowerManager(bad, make_chips(1)), std::invalid_argument);
  // An infinite epoch passes "> 0" and the GPM-interval bound, but no epoch
  // of it could ever be advanced.
  bad.epoch_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ClusterPowerManager(bad, make_chips(1)), std::invalid_argument);
}

TEST(Cluster, RejectsNanEfficiencySmoothing) {
  ClusterConfig bad;
  bad.efficiency_smoothing = std::nan("");
  EXPECT_THROW(ClusterPowerManager(bad, make_chips(1)), std::invalid_argument);
}

TEST(Cluster, RejectsNanMinShare) {
  ClusterConfig bad;
  bad.min_share = std::nan("");
  EXPECT_THROW(ClusterPowerManager(bad, make_chips(1)), std::invalid_argument);
}

TEST(Cluster, RejectsNanIntegralGain) {
  ClusterConfig bad;
  bad.integral_gain = std::nan("");
  EXPECT_THROW(ClusterPowerManager(bad, make_chips(1)), std::invalid_argument);
}

TEST(Cluster, RejectsNanTrimLimit) {
  ClusterConfig bad;
  bad.trim_limit = std::nan("");
  EXPECT_THROW(ClusterPowerManager(bad, make_chips(1)), std::invalid_argument);
}

TEST(Cluster, RejectsInfeasibleShareFloor) {
  // min_share * num_chips > 1 would promise the chips more than the whole
  // budget; the old rack tier silently over-committed here.
  ClusterConfig cfg;
  cfg.min_share = 0.6;
  EXPECT_THROW(ClusterPowerManager(cfg, make_chips(2)),
               std::invalid_argument);
  // Exactly feasible is fine.
  ClusterConfig ok;
  ok.min_share = 0.5;
  EXPECT_NO_THROW(ClusterPowerManager(ok, make_chips(2)));
}

/// Bit-exact equality of every field of a ClusterResult except the per-chip
/// traces (chip_results), which the cluster only passes through.
void expect_identical(const ClusterResult& a, const ClusterResult& b) {
  const auto totals = [](const ClusterResult& r) {
    const util::RunningStats& p = r.epoch_power_stats;
    return std::make_tuple(
        r.cluster_budget_w, r.provisioned_budget_w, r.total_power_w,
        r.total_instructions, r.epochs, r.chips_simulated, r.epoch_stride,
        p.count(), p.sum(), p.mean(), p.variance(), p.min(), p.max(),
        r.invariant_checks, r.invariant_violations, r.first_violation);
  };
  EXPECT_EQ(totals(a), totals(b));
  EXPECT_EQ(a.epoch_power_w, b.epoch_power_w);
  EXPECT_EQ(a.epoch_budget_w, b.epoch_budget_w);
  ASSERT_EQ(a.chips.size(), b.chips.size());
  for (std::size_t c = 0; c < a.chips.size(); ++c) {
    const auto chip = [c](const ClusterResult& r) {
      const ClusterChipStats& s = r.chips[c];
      return std::make_tuple(s.budget_w, s.max_power_w, s.mean_power_w,
                             s.mean_bips, s.instructions, s.efficiency,
                             s.pic_records_seen, s.pic_records_retained,
                             s.gpm_records_seen, s.gpm_records_retained);
    };
    EXPECT_EQ(chip(a), chip(b)) << "chip " << c;
  }
}

TEST(Cluster, ThreadCountInvariant) {
  // The determinism contract: same fleet, same seed, any thread count ->
  // bit-identical results. Shard size 2 forces multiple shards even with
  // only five chips.
  SimulationConfig base = default_config(1.0, 5);
  auto run_with = [&base](std::size_t threads) {
    auto chips = make_cluster_chips(base, 5, /*seed=*/21, /*vary_mixes=*/true,
                                    threads);
    ClusterConfig cfg;
    cfg.threads = threads;
    cfg.shard_size = 2;
    ClusterPowerManager cluster(cfg, std::move(chips));
    return cluster.run(0.1);
  };
  const ClusterResult serial = run_with(1);
  const ClusterResult two = run_with(2);
  const ClusterResult eight = run_with(8);
  EXPECT_GT(serial.total_instructions, 0.0);
  expect_identical(serial, two);
  expect_identical(serial, eight);
}

/// Bit-exact equality of every chip's records and exact per-chip results,
/// for runs made with keep_chip_results and in-memory sinks.
void expect_identical_records(const ClusterResult& a, const ClusterResult& b) {
  ASSERT_EQ(a.chip_results.size(), b.chip_results.size());
  for (std::size_t c = 0; c < a.chip_results.size(); ++c) {
    SCOPED_TRACE("chip " + std::to_string(c));
    const SimulationResult& ra = a.chip_results[c];
    const SimulationResult& rb = b.chip_results[c];
    const auto pic = [](const PicIntervalRecord& r) {
      return std::make_tuple(r.time_s, r.island, r.target_w, r.sensed_w,
                             r.actual_w, r.utilization, r.bips, r.freq_ghz,
                             r.dvfs_level);
    };
    ASSERT_EQ(ra.pic_records.size(), rb.pic_records.size());
    for (std::size_t r = 0; r < ra.pic_records.size(); ++r) {
      EXPECT_EQ(pic(ra.pic_records[r]), pic(rb.pic_records[r])) << "PIC " << r;
    }
    const auto gpm = [](const GpmIntervalRecord& r) {
      return std::make_tuple(r.time_s, r.island_alloc_w, r.island_actual_w,
                             r.island_bips, r.chip_actual_w, r.chip_budget_w,
                             r.chip_bips, r.max_temp_c);
    };
    ASSERT_EQ(ra.gpm_records.size(), rb.gpm_records.size());
    for (std::size_t r = 0; r < ra.gpm_records.size(); ++r) {
      EXPECT_EQ(gpm(ra.gpm_records[r]), gpm(rb.gpm_records[r])) << "GPM " << r;
    }
    EXPECT_EQ(ra.hotspot_fraction, rb.hotspot_fraction);
    EXPECT_EQ(ra.migrations, rb.migrations);
    EXPECT_EQ(ra.island_energy_j, rb.island_energy_j);
  }
}

/// Runs `run` twice as tasks of a 4-thread util::parallel_map, so each
/// cluster run is nested in a pool task (where its own dispatch runs
/// inline), and checks the two agree.
template <typename Run>
ClusterResult run_nested_in_pool_task(Run run) {
  const std::vector<ClusterResult> nested = util::parallel_map<ClusterResult>(
      2, [&run](std::size_t) { return run(); }, 4);
  expect_identical(nested[0], nested[1]);
  return nested[0];
}

TEST(Cluster, ShardSizeInvariant) {
  // The shard size only splits the epoch's chip advances across tasks, and
  // on one worker the fleet is one task of 16-chip lockstep batches; the
  // epoch power is summed in chip order, so every budget the integral trim
  // provisions and every chip record is bit-identical at any shard size and
  // thread count. The reference runs batches of one: shard size 1 on an
  // explicit 2 threads takes the per-shard worker path on any host. The
  // 33-chip fleet crosses the lockstep cap (16 + 16 + 1 on one worker).
  SimulationConfig base = default_config(1.0, 1);
  base.cmp.num_islands = 2;
  base.cmp.cores_per_island = 2;
  base.mix = workload::mix1_regrouped(2);
  base.mix.islands.resize(2);
  base.calibration_seconds = 40.0 * base.cmp.pic_interval_s;
  for (const std::size_t fleet_size : {24, 33}) {
    SCOPED_TRACE(std::to_string(fleet_size) + " chips");
    const auto fleet = make_cluster_chips(base, fleet_size, /*seed=*/7);
    auto run_with = [&fleet](std::size_t shard_size, std::size_t threads) {
      std::vector<std::unique_ptr<Simulation>> chips;
      for (const auto& chip : fleet) {
        chips.push_back(std::make_unique<Simulation>(
            chip->config(), chip->calibration(), chip->max_chip_power()));
      }
      ClusterConfig cfg;
      cfg.integral_gain = 0.1;
      cfg.epoch_s = fleet.front()->config().cmp.gpm_interval_s;
      cfg.shard_size = shard_size;
      cfg.threads = threads;
      cfg.keep_chip_results = true;
      cfg.sink_factory = [](std::size_t) {
        return std::make_unique<InMemorySink>();
      };
      ClusterPowerManager cluster(cfg, std::move(chips));
      return cluster.run(0.1);
    };
    const ClusterResult reference = run_with(1, 2);
    EXPECT_GT(reference.epochs, 1u);
    for (const std::size_t shard_size : {1, 3, 16}) {
      for (const std::size_t threads : {1, 4}) {
        SCOPED_TRACE("shard_size " + std::to_string(shard_size) +
                     ", threads " + std::to_string(threads));
        const ClusterResult run = run_with(shard_size, threads);
        expect_identical(reference, run);
        expect_identical_records(reference, run);
      }
    }
    SCOPED_TRACE("nested in a pool task, shard_size 1, threads 4");
    const ClusterResult nested =
        run_nested_in_pool_task([&run_with] { return run_with(1, 4); });
    expect_identical(reference, nested);
    expect_identical_records(reference, nested);
  }
}

TEST(Cluster, RunRejectsUnrepresentableDuration) {
  // 1e300 / epoch_s epochs do not fit the run's size_t epoch count.
  ClusterPowerManager cluster(ClusterConfig{}, make_chips(2));
  EXPECT_THROW(cluster.run(1e300), std::invalid_argument);
  EXPECT_THROW(cluster.run(std::numeric_limits<double>::max()),
               std::invalid_argument);
  // The manager is still usable after the rejected run.
  EXPECT_EQ(cluster.run(0.05).epochs, 2u);
}

TEST(Cluster, MixedPlantShardMatchesShardSizeOne) {
  // A shard whose chips differ in plant configuration (two topologies, two
  // thermal parameter sets, interleaved so consecutive runs are short) is
  // split into lockstep batches of equal plant configuration; every batch
  // width, and the one-worker plan that batches across shard lines, must
  // give the bits batches of one give.
  std::vector<SimulationConfig> configs;
  for (std::size_t c = 0; c < 9; ++c) {
    SimulationConfig cfg = default_config(1.0, 40 + c);
    cfg.calibration_seconds = 40.0 * cfg.cmp.pic_interval_s;
    if (c % 3 == 2) {
      cfg.cmp.num_islands = 2;
      cfg.cmp.cores_per_island = 2;
      cfg.mix = workload::mix1_regrouped(2);
      cfg.mix.islands.resize(2);
    }
    if (c == 4 || c == 5) cfg.thermal_params.two_layer = true;
    if (c == 6) cfg.thermal_params.ambient_c = 40.0;
    if (c % 4 == 1) {
      for (std::size_t i = 0; i < cfg.cmp.num_islands; ++i) {
        cfg.island_leak_mults.push_back(0.9 + 0.2 * static_cast<double>(i));
      }
    }
    if (c == 0) cfg.manager = ManagerKind::kMaxBips;
    if (c == 8) cfg.enable_migration = true;
    configs.push_back(std::move(cfg));
  }
  const std::vector<ChipCalibration> calibrations = calibrate_chips(configs);
  auto run_with = [&](std::size_t shard_size, std::size_t threads) {
    std::vector<std::unique_ptr<Simulation>> chips;
    for (std::size_t c = 0; c < configs.size(); ++c) {
      chips.push_back(std::make_unique<Simulation>(
          configs[c], calibrations[c].calibration,
          calibrations[c].max_chip_power));
    }
    ClusterConfig cfg;
    cfg.integral_gain = 0.1;
    cfg.epoch_s = 2 * configs.front().cmp.gpm_interval_s;
    cfg.shard_size = shard_size;
    cfg.threads = threads;
    cfg.keep_chip_results = true;
    cfg.sink_factory = [](std::size_t) {
      return std::make_unique<InMemorySink>();
    };
    ClusterPowerManager cluster(cfg, std::move(chips));
    return cluster.run(0.06);
  };
  // Batches of one: shard size 1 on an explicit 2 threads takes the
  // per-shard worker path on any host.
  const ClusterResult reference = run_with(1, 2);
  EXPECT_GT(reference.total_instructions, 0.0);
  for (const std::size_t shard_size : {2, 4, 9}) {
    for (const std::size_t threads : {1, 3}) {
      SCOPED_TRACE("shard_size " + std::to_string(shard_size) + ", threads " +
                   std::to_string(threads));
      const ClusterResult batched = run_with(shard_size, threads);
      expect_identical(reference, batched);
      expect_identical_records(reference, batched);
    }
  }
  SCOPED_TRACE("nested in a pool task, shard_size 1, threads 4");
  const ClusterResult nested =
      run_nested_in_pool_task([&run_with] { return run_with(1, 4); });
  expect_identical(reference, nested);
  expect_identical_records(reference, nested);
}

#if CPM_TRACING_ENABLED

TEST(Cluster, OneWorkerEpochBatchesAcrossShardLines) {
  // One epoch of a 33-chip same-plant fleet at shard size 1. On one worker
  // the fleet is one task stepped as 16 + 16 + 1 lockstep batches; on four,
  // every chip is its own shard and batch.
  SimulationConfig base = default_config(1.0, 1);
  base.cmp.num_islands = 2;
  base.cmp.cores_per_island = 2;
  base.mix = workload::mix1_regrouped(2);
  base.mix.islands.resize(2);
  base.calibration_seconds = 40.0 * base.cmp.pic_interval_s;
  const auto fleet = make_cluster_chips(base, 33, /*seed=*/7);
  // (SimulationRun::advance spans, parallel_map.shard spans) of one epoch.
  auto span_counts = [&fleet](std::size_t threads) {
    std::vector<std::unique_ptr<Simulation>> chips;
    for (const auto& chip : fleet) {
      chips.push_back(std::make_unique<Simulation>(
          chip->config(), chip->calibration(), chip->max_chip_power()));
    }
    ClusterConfig cfg;
    cfg.epoch_s = fleet.front()->config().cmp.gpm_interval_s;
    cfg.shard_size = 1;
    cfg.threads = threads;
    ClusterPowerManager cluster(cfg, std::move(chips));
    std::ostringstream out;
    util::trace::start_session(out);
    const ClusterResult result = cluster.run(cfg.epoch_s);
    util::trace::stop_session();
    EXPECT_EQ(result.epochs, 1u);
    std::pair<std::size_t, std::size_t> counts{0, 0};
    const util::json::Value doc = util::json::parse(out.str());
    for (const util::json::Value& event : doc.find("traceEvents")->array) {
      const std::string& name = event.find("name")->string;
      if (name == "SimulationRun::advance") ++counts.first;
      if (name == "parallel_map.shard") ++counts.second;
    }
    return counts;
  };
  EXPECT_EQ(span_counts(1), std::make_pair(std::size_t{3}, std::size_t{1}));
  EXPECT_EQ(span_counts(4), std::make_pair(std::size_t{33}, std::size_t{33}));
}

#endif  // CPM_TRACING_ENABLED

TEST(Cluster, MatchesRackContract) {
  // With the efficiency objective, no trim, and serial execution, the
  // cluster tier converges to its budget just like the rack tier does.
  ClusterConfig cfg;
  cfg.min_share = 0.05;
  ClusterPowerManager cluster(cfg, make_chips(3));
  const ClusterResult res = cluster.run(0.2);
  EXPECT_EQ(res.chips_simulated, 3u);
  EXPECT_GT(res.epochs, 1u);
  double tail = 0.0;
  std::size_t count = 0;
  for (std::size_t e = res.epoch_power_w.size() / 2;
       e < res.epoch_power_w.size(); ++e) {
    tail += res.epoch_power_w[e];
    ++count;
  }
  tail /= static_cast<double>(count);
  EXPECT_NEAR(tail / res.cluster_budget_w, 1.0, 0.08);
  EXPECT_EQ(res.invariant_violations, 0u) << res.first_violation;
  EXPECT_GT(res.invariant_checks, res.epochs);
}

TEST(Cluster, BudgetsRespectProvisionAndChipMax) {
  ClusterConfig cfg;
  cfg.min_share = 0.1;
  ClusterPowerManager cluster(cfg, make_chips(4));
  const ClusterResult res = cluster.run(0.1);
  double total = 0.0;
  for (const auto& chip : res.chips) {
    EXPECT_GE(chip.budget_w, 0.0);
    EXPECT_LE(chip.budget_w, chip.max_power_w * (1.0 + 1e-9));
    total += chip.budget_w;
  }
  EXPECT_LE(total, res.provisioned_budget_w * (1.0 + 1e-9));
  EXPECT_EQ(res.invariant_violations, 0u) << res.first_violation;
}

TEST(Cluster, EpochSeriesAtCapacityTwoSpansTheRun) {
  // The epoch series decimates exactly like a BoundedSink kDecimate stream:
  // at capacity 2 over 70 epochs it keeps epochs 0 and 64 (stride 64), so
  // it still spans the run instead of collapsing to epoch 0.
  const auto run = [](std::size_t capacity) {
    auto chips = make_chips(1);
    ClusterConfig cfg;
    cfg.epoch_s = chips.front()->config().cmp.gpm_interval_s;
    cfg.epoch_capacity = capacity;
    ClusterPowerManager cluster(cfg, std::move(chips));
    return cluster.run(70 * cfg.epoch_s);
  };
  const ClusterResult full = run(0);
  const ClusterResult res = run(2);
  ASSERT_EQ(full.epochs, 70u);
  ASSERT_EQ(full.epoch_power_w.size(), 70u);
  EXPECT_EQ(full.epoch_stride, 1u);
  ASSERT_EQ(res.epoch_power_w.size(), 2u);
  ASSERT_EQ(res.epoch_budget_w.size(), 2u);
  EXPECT_GT(res.epoch_stride, 1u);
  EXPECT_EQ(res.epoch_stride, 64u);
  EXPECT_EQ(res.epoch_power_w[0], full.epoch_power_w[0]);
  EXPECT_EQ(res.epoch_power_w[1], full.epoch_power_w[64]);
  EXPECT_EQ(res.epoch_budget_w[1], full.epoch_budget_w[64]);
}

TEST(Cluster, BoundedMemoryOnLongRun) {
  // A long run with bounded sinks and a bounded epoch series: retained
  // records stay O(capacity) while the exact aggregates cover every epoch.
  ClusterConfig cfg;
  cfg.epoch_capacity = 32;
  cfg.sink_factory = [](std::size_t) {
    BoundedSinkConfig sink;
    sink.pic_capacity = 64;
    sink.gpm_capacity = 16;
    sink.policy = BoundedSinkConfig::Policy::kDecimate;
    return std::make_unique<BoundedSink>(sink);
  };
  ClusterPowerManager cluster(cfg, make_chips(2));
  const ClusterResult res = cluster.run(1.5);
  EXPECT_GE(res.epochs, 60u);
  // The epoch series is decimated, never unbounded.
  EXPECT_LE(res.epoch_power_w.size(), 32u);
  EXPECT_GT(res.epoch_stride, 1u);
  EXPECT_EQ(res.epoch_power_w.size(), res.epoch_budget_w.size());
  // Exact aggregates still saw every epoch.
  EXPECT_EQ(res.epoch_power_stats.count(), res.epochs);
  // Per-chip sinks bounded their retained traces but counted everything.
  for (const auto& chip : res.chips) {
    EXPECT_LE(chip.pic_records_retained, 64u);
    EXPECT_LE(chip.gpm_records_retained, 16u);
    EXPECT_GT(chip.pic_records_seen, chip.pic_records_retained);
    EXPECT_GT(chip.gpm_records_seen, chip.gpm_records_retained);
  }
  // Full traces are off by default at cluster scale.
  EXPECT_TRUE(res.chip_results.empty());
}

TEST(Cluster, KeepChipResultsRetainsFullTraces) {
  ClusterConfig cfg;
  cfg.keep_chip_results = true;
  cfg.sink_factory = [](std::size_t) {
    return std::make_unique<InMemorySink>();
  };
  ClusterPowerManager cluster(cfg, make_chips(2));
  const ClusterResult res = cluster.run(0.05);
  ASSERT_EQ(res.chip_results.size(), 2u);
  for (const auto& chip : res.chip_results) {
    EXPECT_FALSE(chip.gpm_records.empty());
    EXPECT_GT(chip.total_instructions, 0.0);
  }
}

TEST(Cluster, EnergyOptimalObjectiveShiftsSharesToEfficientChips) {
  // Squaring the efficiency term must not break any budget invariant, and
  // the most efficient chip's share under kEnergyOptimal is at least its
  // share under kEfficiency.
  auto run_with = [](ClusterObjective objective) {
    ClusterConfig cfg;
    cfg.objective = objective;
    ClusterPowerManager cluster(cfg, make_chips(3, 29));
    return cluster.run(0.15);
  };
  const ClusterResult eff = run_with(ClusterObjective::kEfficiency);
  const ClusterResult opt = run_with(ClusterObjective::kEnergyOptimal);
  EXPECT_EQ(opt.invariant_violations, 0u) << opt.first_violation;
  std::size_t best = 0;
  for (std::size_t c = 1; c < eff.chips.size(); ++c) {
    if (eff.chips[c].efficiency > eff.chips[best].efficiency) best = c;
  }
  EXPECT_GE(opt.chips[best].budget_w, eff.chips[best].budget_w * 0.99);
}

TEST(Cluster, IntegralTrimStaysWithinLimits) {
  ClusterConfig cfg;
  cfg.integral_gain = 0.2;
  cfg.trim_limit = 0.15;
  ClusterPowerManager cluster(cfg, make_chips(2, 41));
  const double nominal = cluster.cluster_budget_w();
  const ClusterResult res = cluster.run(0.2);
  EXPECT_TRUE(std::isfinite(res.provisioned_budget_w));
  EXPECT_GE(res.provisioned_budget_w, nominal * (1.0 - 0.15) - 1e-9);
  EXPECT_LE(res.provisioned_budget_w, nominal * (1.0 + 0.15) + 1e-9);
  EXPECT_EQ(res.invariant_violations, 0u) << res.first_violation;
  // The trimmed budget trajectory is recorded alongside the power series.
  ASSERT_EQ(res.epoch_budget_w.size(), res.epoch_power_w.size());
}

TEST(MakeClusterChips, DeterministicAtAnyThreadCount) {
  SimulationConfig base = default_config(0.8, 7);
  const auto serial = make_cluster_chips(base, 6, 13, true, 1);
  const auto parallel = make_cluster_chips(base, 6, 13, true, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t c = 0; c < serial.size(); ++c) {
    EXPECT_EQ(serial[c]->config().seed, parallel[c]->config().seed);
    const auto& ma = serial[c]->config().mix;
    const auto& mb = parallel[c]->config().mix;
    ASSERT_EQ(ma.islands.size(), mb.islands.size());
    for (std::size_t i = 0; i < ma.islands.size(); ++i) {
      EXPECT_EQ(ma.islands[i], mb.islands[i]);  // same profile pointers
    }
    EXPECT_DOUBLE_EQ(serial[c]->max_chip_power().value(),
                     parallel[c]->max_chip_power().value());
  }
  // Distinct chips drew distinct seeds.
  EXPECT_NE(serial[0]->config().seed, serial[1]->config().seed);
}

TEST(MakeClusterChips, CalibrationMatchesSoloSimulation) {
  // A fleet chip is calibrated in lockstep with its shard; its calibration
  // and max chip power must be, field by field and bit for bit, what a solo
  // Simulation of its config computes. 19 chips: a full default shard and
  // a short one.
  SimulationConfig base = default_config(0.8, 7);
  base.cmp.num_islands = 2;
  base.cmp.cores_per_island = 2;
  base.mix = workload::mix1_regrouped(2);
  base.mix.islands.resize(2);
  base.calibration_seconds = 30.0 * base.cmp.pic_interval_s;
  base.island_leak_mults = {1.2, 0.9};
  const auto fleet = make_cluster_chips(base, util::kDefaultShardSize + 3,
                                        /*seed=*/5, true, 2);
  const auto bits = [](const std::vector<double>& v) {
    std::vector<std::uint64_t> out;
    for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
    return out;
  };
  for (std::size_t c = 0; c < fleet.size(); ++c) {
    SCOPED_TRACE("chip " + std::to_string(c));
    const Simulation solo(fleet[c]->config());
    const CalibrationResult& a = fleet[c]->calibration();
    const CalibrationResult& b = solo.calibration();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fleet[c]->max_chip_power().value()),
              std::bit_cast<std::uint64_t>(solo.max_chip_power().value()));
    EXPECT_EQ(bits(a.plant_gains), bits(b.plant_gains));
    EXPECT_EQ(bits(a.plant_gain_r2), bits(b.plant_gain_r2));
    EXPECT_EQ(bits(a.island_peak_power_w), bits(b.island_peak_power_w));
    EXPECT_EQ(bits(a.island_fmax_bips), bits(b.island_fmax_bips));
    EXPECT_EQ(bits(a.island_fmax_leakage_w), bits(b.island_fmax_leakage_w));
    ASSERT_EQ(a.transducers.size(), b.transducers.size());
    for (std::size_t i = 0; i < a.transducers.size(); ++i) {
      EXPECT_EQ(bits({a.transducers[i].k1, a.transducers[i].k0,
                      a.transducers[i].r_squared}),
                bits({b.transducers[i].k1, b.transducers[i].k0,
                      b.transducers[i].r_squared}))
          << "island " << i;
    }
  }
}

TEST(MakeClusterChips, ShardStreamsMatchManualDerivation) {
  // Chip c of shard s draws its seed, then its mix, from
  // util::shard_stream(seed, s) after the chips before it in the shard --
  // replay the contract by hand across two default-size shards.
  SimulationConfig base = default_config(0.8, 7);
  base.calibration_seconds = 10.0 * base.cmp.pic_interval_s;
  const std::size_t n = util::kDefaultShardSize + 3;
  const auto chips = make_cluster_chips(base, n, /*seed=*/77, true, 4);
  std::vector<const workload::BenchmarkProfile*> pool;
  for (const auto& p : workload::parsec_profiles()) pool.push_back(&p);
  for (const auto& p : workload::spec_profiles()) pool.push_back(&p);
  for (const auto& p : workload::extra_parsec_profiles()) pool.push_back(&p);
  const util::ShardPlan plan{n, util::kDefaultShardSize};
  ASSERT_EQ(plan.num_shards(), 2u);
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    util::Xoshiro256pp rng = util::shard_stream(77, s);
    for (std::size_t c = plan.begin(s); c < plan.end(s); ++c) {
      const SimulationConfig& cfg = chips[c]->config();
      ASSERT_EQ(cfg.seed, rng()) << "chip " << c;
      ASSERT_EQ(cfg.mix.islands.size(), base.mix.num_islands());
      for (const auto& island : cfg.mix.islands) {
        ASSERT_EQ(island.size(), base.mix.cores_per_island());
        for (const auto* profile : island) {
          ASSERT_EQ(profile, pool[rng.uniform_int(pool.size())])
              << "chip " << c;
        }
      }
    }
  }
}

// The rack tier: a small fleet of full-budget chips under the efficiency
// objective, open-loop provisioning, serial epochs, every epoch retained and
// full per-chip traces kept in memory.
ClusterConfig rack_config() {
  ClusterConfig cfg;
  cfg.min_share = 0.05;
  cfg.objective = ClusterObjective::kEfficiency;
  cfg.integral_gain = 0.0;
  cfg.threads = 1;
  cfg.keep_chip_results = true;
  cfg.epoch_capacity = 0;
  cfg.sink_factory = [](std::size_t) {
    return std::make_unique<InMemorySink>();
  };
  return cfg;
}

TEST(Rack, RejectsBadConstruction) {
  EXPECT_THROW(ClusterPowerManager(rack_config(), {}), std::invalid_argument);
  ClusterConfig bad = rack_config();
  bad.budget_fraction = 0.0;
  EXPECT_THROW(ClusterPowerManager(bad, make_chips(1)), std::invalid_argument);
  ClusterConfig bad2 = rack_config();
  bad2.epoch_s = 0.0;
  EXPECT_THROW(ClusterPowerManager(bad2, make_chips(1)),
               std::invalid_argument);
}

TEST(Rack, RejectsInfeasibleShareFloor) {
  // Regression: min_share * num_chips > 1 used to over-commit the rack
  // budget silently (every chip was promised 60% of the total); now it is
  // rejected at construction.
  ClusterConfig bad = rack_config();
  bad.min_share = 0.6;
  EXPECT_THROW(ClusterPowerManager(bad, make_chips(2)), std::invalid_argument);
  ClusterConfig feasible = rack_config();
  feasible.min_share = 0.5;
  EXPECT_NO_THROW(ClusterPowerManager(feasible, make_chips(2)));
}

TEST(Rack, BudgetIsFractionOfCombinedMaxPower) {
  auto chips = make_chips(2);
  const double total_max =
      chips[0]->max_chip_power().value() + chips[1]->max_chip_power().value();
  ClusterConfig cfg = rack_config();
  cfg.budget_fraction = 0.7;
  ClusterPowerManager rack(cfg, std::move(chips));
  EXPECT_NEAR(rack.cluster_budget_w(), 0.7 * total_max, 1e-9);
}

TEST(Rack, TracksRackBudget) {
  ClusterConfig cfg = rack_config();
  cfg.budget_fraction = 0.75;
  ClusterPowerManager rack(cfg, make_chips(3));
  const ClusterResult res = rack.run(0.2);
  ASSERT_EQ(res.chips.size(), 3u);
  // Rack power converges near the rack budget (the whole point of the
  // hierarchy): skip the first epochs, check the tail.
  double tail = 0.0;
  std::size_t count = 0;
  for (std::size_t e = res.epoch_power_w.size() / 2;
       e < res.epoch_power_w.size(); ++e) {
    tail += res.epoch_power_w[e];
    ++count;
  }
  tail /= static_cast<double>(count);
  EXPECT_NEAR(tail / res.cluster_budget_w, 1.0, 0.08);
  // And never wildly exceeds it.
  for (const double p : res.epoch_power_w) {
    EXPECT_LT(p, res.cluster_budget_w * 1.15);
  }
}

TEST(Rack, PerChipBudgetsSumToRackBudget) {
  ClusterPowerManager rack(rack_config(), make_chips(3));
  const ClusterResult res = rack.run(0.1);
  double total = 0.0;
  for (const auto& chip : res.chips) total += chip.budget_w;
  EXPECT_LE(total, res.cluster_budget_w * (1.0 + 1e-9));
  for (const auto& chip : res.chips) {
    EXPECT_GE(chip.budget_w, 0.0);
    EXPECT_LE(chip.budget_w, chip.max_power_w * (1.0 + 1e-9));
  }
}

TEST(Rack, ProducesPerChipTraces) {
  ClusterPowerManager rack(rack_config(), make_chips(2));
  const ClusterResult res = rack.run(0.1);
  ASSERT_EQ(res.chip_results.size(), 2u);
  for (const auto& chip : res.chip_results) {
    EXPECT_GT(chip.total_instructions, 0.0);
    EXPECT_FALSE(chip.gpm_records.empty());
  }
  EXPECT_GT(res.total_instructions, 0.0);
}

TEST(Rack, Deterministic) {
  ClusterPowerManager a(rack_config(), make_chips(2, 11));
  ClusterPowerManager b(rack_config(), make_chips(2, 11));
  const ClusterResult ra = a.run(0.05);
  const ClusterResult rb = b.run(0.05);
  EXPECT_DOUBLE_EQ(ra.total_instructions, rb.total_instructions);
  ASSERT_EQ(ra.epoch_power_w.size(), rb.epoch_power_w.size());
  for (std::size_t e = 0; e < ra.epoch_power_w.size(); ++e) {
    EXPECT_DOUBLE_EQ(ra.epoch_power_w[e], rb.epoch_power_w[e]);
  }
}

}  // namespace
}  // namespace cpm::core
