// The registry's publish path: runs keep their own counts and publish them
// once, at finish() (calibration ticks at the end of calibrate()). The
// process-wide totals must therefore be the same whether a sweep runs
// serially or on pool workers, and must equal the sum of what the runs
// themselves report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/simulation.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace cpm {
namespace {

constexpr double kRunSeconds = 0.03;

/// Six seeded configs over all three managers.
core::SimulationConfig sweep_config(std::size_t i) {
  core::SimulationConfig cfg = core::default_config(
      0.7 + 0.05 * static_cast<double>(i), 11 + i);
  cfg.manager = i == 4   ? core::ManagerKind::kMaxBips
                : i == 5 ? core::ManagerKind::kNoDvfs
                         : core::ManagerKind::kCpm;
  return cfg;
}

/// What one run owns: the counts it should have published.
struct RunCounts {
  std::uint64_t ticks = 0;  // calibration + run
  std::uint64_t pic_invocations = 0;
  std::uint64_t gpm_invocations = 0;
};

RunCounts run_one(std::size_t i) {
  const core::SimulationConfig cfg = sweep_config(i);
  core::Simulation sim(cfg);
  const core::SimulationResult res = sim.run(kRunSeconds);
  const double dt = cfg.cmp.tick_seconds();
  // Simulation::calibrate's length: at least 16 PIC intervals.
  const std::uint64_t calibration_ticks = std::max<std::uint64_t>(
      cfg.cmp.ticks_per_pic_interval * 16,
      static_cast<std::uint64_t>(cfg.calibration_seconds / dt));
  RunCounts counts;
  counts.ticks = calibration_ticks +
                 static_cast<std::uint64_t>(std::llround(res.duration_s / dt));
  if (cfg.manager == core::ManagerKind::kCpm) {
    counts.pic_invocations = res.pic_records_seen;
    counts.gpm_invocations = res.gpm_records_seen;
  }
  return counts;
}

struct Published {
  std::uint64_t ticks = 0;
  std::uint64_t pic_invocations = 0;
  std::uint64_t gpm_invocations = 0;
  RunCounts expected;  // summed over the runs
};

Published sweep(std::size_t threads) {
  const util::MetricsRegistry& registry = util::MetricsRegistry::global();
  const std::uint64_t ticks0 = registry.counter_value("chip.ticks");
  const std::uint64_t pic0 = registry.counter_value("pic.invocations");
  const std::uint64_t gpm0 = registry.counter_value("gpm.invocations");
  const std::vector<RunCounts> runs =
      util::parallel_map<RunCounts>(6, run_one, threads);
  Published p;
  p.ticks = registry.counter_value("chip.ticks") - ticks0;
  p.pic_invocations = registry.counter_value("pic.invocations") - pic0;
  p.gpm_invocations = registry.counter_value("gpm.invocations") - gpm0;
  for (const RunCounts& r : runs) {
    p.expected.ticks += r.ticks;
    p.expected.pic_invocations += r.pic_invocations;
    p.expected.gpm_invocations += r.gpm_invocations;
  }
  return p;
}

TEST(MetricsPublish, SerialAndPooledSweepsPublishTheRunsOwnCounts) {
  const Published serial = sweep(1);
  const Published pooled = sweep(4);
  for (const Published* p : {&serial, &pooled}) {
    EXPECT_EQ(p->ticks, p->expected.ticks);
    EXPECT_EQ(p->pic_invocations, p->expected.pic_invocations);
    EXPECT_EQ(p->gpm_invocations, p->expected.gpm_invocations);
  }
  EXPECT_GT(serial.pic_invocations, 0u);
  EXPECT_GT(serial.gpm_invocations, 0u);
  EXPECT_EQ(serial.ticks, pooled.ticks);
  EXPECT_EQ(serial.pic_invocations, pooled.pic_invocations);
  EXPECT_EQ(serial.gpm_invocations, pooled.gpm_invocations);
}

TEST(MetricsPublish, StaticMaxBipsSolvesOncePerBudget) {
  // The static table never changes, so a static-MaxBIPS run re-solves only
  // when its budget does: once at the first window, then once per applied
  // budget change (here a schedule and a supervisor override).
  core::SimulationConfig cfg =
      core::with_manager(core::default_config(), core::ManagerKind::kMaxBips);
  cfg.budget_schedule = {{0.02, 0.6}, {0.035, 0.9}};
  const util::MetricsRegistry& registry = util::MetricsRegistry::global();
  const std::uint64_t solves0 = registry.counter_value("maxbips.solves");
  core::Simulation sim(cfg);
  const std::unique_ptr<core::SimulationRun> run = sim.start();
  run->advance(0.01);
  run->set_budget(sim.max_chip_power() * 0.7);
  run->advance(0.04);
  const core::SimulationResult res = run->finish();

  std::uint64_t budget_changes = 0;
  for (std::size_t k = 1; k < res.gpm_records.size(); ++k) {
    if (res.gpm_records[k].chip_budget_w !=
        res.gpm_records[k - 1].chip_budget_w) {
      ++budget_changes;
    }
  }
  EXPECT_EQ(budget_changes, 3u);
  EXPECT_EQ(res.gpm_records.size(), 10u);
  EXPECT_EQ(registry.counter_value("maxbips.solves") - solves0,
            1 + budget_changes);
}

bool has_metric(const std::string& name) {
  std::ostringstream out;
  util::MetricsRegistry::global().write_json(out);
  return out.str().find('"' + name + '"') != std::string::npos;
}

TEST(MetricsPublish, NoDvfsRunPublishesNoControllerMetrics) {
  // Under ctest every test runs in a fresh process, so the names start
  // absent; run in one process with other tests, only the deltas apply.
  const bool pic_existed = has_metric("pic.invocations");
  const bool gpm_existed = has_metric("gpm.invocations");
  const bool solves_existed = has_metric("maxbips.solves");
  const util::MetricsRegistry& registry = util::MetricsRegistry::global();
  const std::uint64_t pic0 = registry.counter_value("pic.invocations");
  const std::uint64_t ticks0 = registry.counter_value("chip.ticks");
  run_one(5);
  EXPECT_EQ(registry.counter_value("pic.invocations"), pic0);
  EXPECT_GT(registry.counter_value("chip.ticks"), ticks0);
  if (!pic_existed) {
    EXPECT_FALSE(has_metric("pic.invocations"));
    EXPECT_FALSE(has_metric("pic.abs_error_pct"));
  }
  if (!gpm_existed) {
    EXPECT_FALSE(has_metric("gpm.invocations"));
  }
  if (!solves_existed) {
    EXPECT_FALSE(has_metric("maxbips.solves"));
  }
}

}  // namespace
}  // namespace cpm
