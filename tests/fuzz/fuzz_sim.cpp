// Randomized differential fuzz harness for the simulation platform.
//
// Each scenario draws a random-but-reproducible configuration (topology,
// DVFS table, controller cadence, workload mix, budget and mid-run budget
// schedule, actuation knobs, sensing pathologies) from a seeded util::rng
// stream, then runs all five manager/policy variants (CPM x
// perf/thermal/variation, MaxBIPS, NoDVFS) under an InvariantChecker and
// asserts five differential guarantees on top of the per-record invariants:
//
//   1. determinism  -- the same seed produces bit-identical results whether
//                      the five variants run serially, via
//                      util::parallel_map (full pipeline incl. calibration)
//                      or in lockstep as one core::RunBatch (they share one
//                      plant configuration), and the serial and batched
//                      runs' records hash to the same digest;
//   2. trace fidelity -- CSV and JSONL round-trips through trace_io
//                      reproduce every serialized field bit-exactly;
//   3. time-slicing -- advance(T) is equivalent to any partition
//                      advance(t1)..advance(tk) with sum(ti) = T (the
//                      fractional-tick carry contract);
//   4. chip-vs-reference / batch-vs-reference -- sim::Chip, stepped in
//                      lockstep with the test tree's object-walking
//                      reference chip (tests/support/reference_chip.h) on
//                      the scenario's chip, and then as a batch of 2-4
//                      chips each against its own reference chip, under a
//                      seeded stream of every actuator call SimulationRun
//                      and calibration make (start-up levels, PIC requests,
//                      MaxBIPS and calibration set_level, migrations with
//                      short and long stalls), agrees with it bit for bit
//                      at every tick: the tick record, the per-core SoA
//                      columns and every actuator's state;
//   5. cluster-threads / cluster-shards -- a ClusterPowerManager run over
//                      a random fleet of 2-7 chips, or 17-20 chips in one
//                      scenario in eight (randomized objective, share
//                      floor, integral trim), produces bit-identical
//                      results at 1 thread (one task over the fleet, in
//                      lockstep batches of at most 16 chips, so the large
//                      fleets cross the cap) and at N threads with a drawn
//                      shard size of 2 or more (a shard's chips step
//                      through one batched plant), and again at N threads
//                      with shard size 1, with every chip under an
//                      InvariantChecker in every run.
//
// Every failure prints the master seed and a --replay command that reruns
// just the offending scenario.
//
//   fuzz_sim [--scenarios N] [--seed S] [--replay K] [--fail-fast]
#include <algorithm>
#include <bit>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/invariant_checker.h"
#include "core/record_sink.h"
#include "core/simulation.h"
#include "core/trace_io.h"
#include "support/reference_chip.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "workload/mixes.h"
#include "workload/profile.h"

namespace {

using namespace cpm;

struct FuzzOptions {
  std::size_t scenarios = 200;
  std::uint64_t seed = 1;
  std::optional<std::size_t> replay;
  bool fail_fast = false;
};

struct VariantSpec {
  const char* name;
  core::ManagerKind manager;
  core::PolicyKind policy;
};

constexpr VariantSpec kVariants[] = {
    {"cpm/perf", core::ManagerKind::kCpm, core::PolicyKind::kPerformance},
    {"cpm/thermal", core::ManagerKind::kCpm, core::PolicyKind::kThermal},
    {"cpm/variation", core::ManagerKind::kCpm, core::PolicyKind::kVariation},
    {"maxbips", core::ManagerKind::kMaxBips, core::PolicyKind::kPerformance},
    {"nodvfs", core::ManagerKind::kNoDvfs, core::PolicyKind::kPerformance},
};
constexpr std::size_t kNumVariants = std::size(kVariants);

// ---------------------------------------------------------------------------
// Scenario generation
// ---------------------------------------------------------------------------

sim::DvfsTable random_dvfs(util::Xoshiro256pp& rng) {
  const std::size_t levels = 4 + rng.uniform_int(7);  // 4..10
  std::vector<sim::DvfsPoint> points;
  double f = rng.uniform(0.4, 0.8);
  const double v0 = rng.uniform(0.5, 0.8);    // voltage affine in frequency,
  const double dv_df = rng.uniform(0.2, 0.4); // like the Pentium-M table
  for (std::size_t l = 0; l < levels; ++l) {
    points.push_back({v0 + dv_df * f, f});
    f += rng.uniform(0.1, 0.4);
  }
  return sim::DvfsTable(std::move(points));
}

workload::Mix random_mix(util::Xoshiro256pp& rng, std::size_t num_islands,
                         std::size_t cores_per_island) {
  std::vector<const workload::BenchmarkProfile*> pool;
  for (const auto& p : workload::parsec_profiles()) pool.push_back(&p);
  for (const auto& p : workload::spec_profiles()) pool.push_back(&p);
  for (const auto& p : workload::extra_parsec_profiles()) pool.push_back(&p);
  workload::Mix mix;
  mix.name = "fuzz";
  for (std::size_t i = 0; i < num_islands; ++i) {
    workload::IslandAssignment island;
    for (std::size_t c = 0; c < cores_per_island; ++c) {
      island.push_back(pool[rng.uniform_int(pool.size())]);
    }
    mix.islands.push_back(std::move(island));
  }
  return mix;
}

core::SimulationConfig random_config(util::Xoshiro256pp& rng,
                                     double& duration_out) {
  static constexpr std::pair<std::size_t, std::size_t> kTopologies[] = {
      {2, 2}, {4, 2}, {2, 4}, {4, 4}, {8, 1}, {4, 1}, {3, 2}, {6, 1}};
  const auto [islands, cores] =
      kTopologies[rng.uniform_int(std::size(kTopologies))];

  core::SimulationConfig c;
  c.cmp.num_islands = islands;
  c.cmp.cores_per_island = cores;
  c.cmp.dvfs = random_dvfs(rng);
  static constexpr double kPicIntervals[] = {0.25e-3, 0.5e-3, 1e-3};
  c.cmp.pic_interval_s = kPicIntervals[rng.uniform_int(3)];
  c.cmp.ticks_per_pic_interval = 4 + rng.uniform_int(5);  // 4..8
  const std::size_t pics_per_gpm = rng.bernoulli(0.5) ? 10 : 5;
  c.cmp.gpm_interval_s =
      c.cmp.pic_interval_s * static_cast<double>(pics_per_gpm);
  c.mix = random_mix(rng, islands, cores);
  c.seed = rng();
  c.budget_fraction = rng.uniform(0.5, 0.95);
  duration_out =
      c.cmp.gpm_interval_s * static_cast<double>(3 + rng.uniform_int(4));
  if (rng.bernoulli(0.4)) {
    std::vector<double> times;
    const std::size_t changes = 1 + rng.uniform_int(2);
    for (std::size_t k = 0; k < changes; ++k) {
      times.push_back(rng.uniform(0.0, duration_out));
    }
    std::sort(times.begin(), times.end());
    for (const double t : times) {
      c.budget_schedule.emplace_back(t, rng.uniform(0.45, 0.95));
    }
  }
  c.pic_max_step_ghz = rng.uniform(0.2, 0.6);
  c.pic_deadband_pct = rng.uniform(0.3, 1.5);
  if (rng.bernoulli(0.3)) c.pic_observer_gain = rng.uniform(0.1, 0.5);
  if (rng.bernoulli(0.3)) c.sensor_noise_sigma = rng.uniform(0.005, 0.03);
  c.adaptive_transducer = rng.bernoulli(0.3);
  if (rng.bernoulli(0.5)) {
    for (std::size_t i = 0; i < islands; ++i) {
      c.island_leak_mults.push_back(rng.uniform(0.8, 1.8));
    }
  }
  // Enough calibration intervals for the transducer/plant-gain fits at any
  // of the randomized cadences, without dominating scenario runtime.
  c.calibration_seconds = 40.0 * c.cmp.pic_interval_s;
  return c;
}

// ---------------------------------------------------------------------------
// Bit-exact comparison helpers
// ---------------------------------------------------------------------------

bool same_pic(const core::PicIntervalRecord& a,
              const core::PicIntervalRecord& b) {
  return a.time_s == b.time_s && a.island == b.island &&
         a.target_w == b.target_w && a.sensed_w == b.sensed_w &&
         a.actual_w == b.actual_w && a.utilization == b.utilization &&
         a.bips == b.bips && a.freq_ghz == b.freq_ghz &&
         a.dvfs_level == b.dvfs_level;
}

/// `serialized_only`: ignore island_bips, which the CSV/JSONL formats do not
/// carry (round-trip checks); full comparison otherwise.
bool same_gpm(const core::GpmIntervalRecord& a,
              const core::GpmIntervalRecord& b, bool serialized_only) {
  return a.time_s == b.time_s && a.island_alloc_w == b.island_alloc_w &&
         a.island_actual_w == b.island_actual_w &&
         (serialized_only || a.island_bips == b.island_bips) &&
         a.chip_actual_w == b.chip_actual_w &&
         a.chip_budget_w == b.chip_budget_w && a.chip_bips == b.chip_bips &&
         a.max_temp_c == b.max_temp_c;
}

/// Bit-exact equality of everything cluster determinism guarantees:
/// provisioning trajectory, per-chip stats, and (keep_chip_results) the full
/// per-chip traces via diff_results.
std::string diff_results(const core::SimulationResult& a,
                         const core::SimulationResult& b);

std::string diff_cluster(const core::ClusterResult& a,
                         const core::ClusterResult& b) {
  if (a.cluster_budget_w != b.cluster_budget_w) return "cluster_budget_w";
  if (a.provisioned_budget_w != b.provisioned_budget_w) {
    return "provisioned_budget_w";
  }
  if (a.total_power_w != b.total_power_w) return "total_power_w";
  if (a.total_instructions != b.total_instructions) {
    return "total_instructions";
  }
  if (a.epochs != b.epochs) return "epoch count";
  if (a.epoch_power_w != b.epoch_power_w) return "epoch_power_w series";
  if (a.epoch_budget_w != b.epoch_budget_w) return "epoch_budget_w series";
  if (a.chips.size() != b.chips.size()) return "chip count";
  for (std::size_t c = 0; c < a.chips.size(); ++c) {
    if (a.chips[c].budget_w != b.chips[c].budget_w ||
        a.chips[c].mean_power_w != b.chips[c].mean_power_w ||
        a.chips[c].mean_bips != b.chips[c].mean_bips ||
        a.chips[c].instructions != b.chips[c].instructions ||
        a.chips[c].efficiency != b.chips[c].efficiency) {
      return "chip stats " + std::to_string(c);
    }
  }
  if (a.chip_results.size() != b.chip_results.size()) {
    return "chip result count";
  }
  for (std::size_t c = 0; c < a.chip_results.size(); ++c) {
    const std::string diff =
        diff_results(a.chip_results[c], b.chip_results[c]);
    if (!diff.empty()) return "chip " + std::to_string(c) + ": " + diff;
  }
  return {};
}

/// Bit-exact equality of everything determinism guarantees about a run.
std::string diff_results(const core::SimulationResult& a,
                         const core::SimulationResult& b) {
  if (a.pic_records.size() != b.pic_records.size()) return "pic record count";
  if (a.gpm_records.size() != b.gpm_records.size()) return "gpm record count";
  for (std::size_t i = 0; i < a.pic_records.size(); ++i) {
    if (!same_pic(a.pic_records[i], b.pic_records[i])) {
      return "pic record " + std::to_string(i);
    }
  }
  for (std::size_t i = 0; i < a.gpm_records.size(); ++i) {
    if (!same_gpm(a.gpm_records[i], b.gpm_records[i], false)) {
      return "gpm record " + std::to_string(i);
    }
  }
  if (a.duration_s != b.duration_s) return "duration_s";
  if (a.budget_w != b.budget_w) return "budget_w";
  if (a.max_chip_power_w != b.max_chip_power_w) return "max_chip_power_w";
  if (a.total_instructions != b.total_instructions) {
    return "total_instructions";
  }
  if (a.avg_chip_power_w != b.avg_chip_power_w) return "avg_chip_power_w";
  if (a.avg_chip_bips != b.avg_chip_bips) return "avg_chip_bips";
  if (a.dvfs_transitions != b.dvfs_transitions) return "dvfs_transitions";
  if (a.island_instructions != b.island_instructions) {
    return "island_instructions";
  }
  if (a.island_energy_j != b.island_energy_j) return "island_energy_j";
  if (a.island_avg_bips != b.island_avg_bips) return "island_avg_bips";
  if (a.island_level_residency != b.island_level_residency) {
    return "island_level_residency";
  }
  if (a.hotspot_fraction != b.hotspot_fraction) return "hotspot_fraction";
  if (a.migrations != b.migrations) return "migrations";
  if (a.pic_records_seen != b.pic_records_seen) return "pic_records_seen";
  if (a.gpm_records_seen != b.gpm_records_seen) return "gpm_records_seen";
  return {};
}

/// FNV-1a over the bit patterns of every field of every PIC and GPM record
/// (signed zeros and NaN payloads included, which == does not tell apart).
std::uint64_t record_digest(const core::SimulationResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto add = [&h](auto value) {
    std::uint64_t bits = 0;
    if constexpr (std::is_floating_point_v<decltype(value)>) {
      bits = std::bit_cast<std::uint64_t>(static_cast<double>(value));
    } else {
      bits = static_cast<std::uint64_t>(value);
    }
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((bits >> (8 * b)) & 0xFF)) * 0x100000001b3ULL;
    }
  };
  const auto add_all = [&add](const std::vector<double>& values) {
    add(values.size());
    for (const double v : values) add(v);
  };
  for (const core::PicIntervalRecord& p : r.pic_records) {
    add(p.time_s);
    add(p.island);
    add(p.target_w);
    add(p.sensed_w);
    add(p.actual_w);
    add(p.utilization);
    add(p.bips);
    add(p.freq_ghz);
    add(p.dvfs_level);
  }
  for (const core::GpmIntervalRecord& g : r.gpm_records) {
    add(g.time_s);
    add_all(g.island_alloc_w);
    add_all(g.island_actual_w);
    add_all(g.island_bips);
    add(g.chip_actual_w);
    add(g.chip_budget_w);
    add(g.chip_bips);
    add(g.max_temp_c);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Scenario execution
// ---------------------------------------------------------------------------

struct Failure {
  std::size_t scenario = 0;
  std::string variant;
  std::string check;
  std::string detail;
};

class FuzzRun {
 public:
  explicit FuzzRun(const FuzzOptions& opt) : opt_(opt) {}

  /// Returns false when --fail-fast saw a failure.
  bool run_scenario(std::size_t index);

  const std::vector<Failure>& failures() const noexcept { return failures_; }
  std::size_t simulations() const noexcept { return simulations_; }
  std::size_t records_checked() const noexcept { return records_checked_; }
  std::size_t lockstep_ticks() const noexcept { return lockstep_ticks_; }

 private:
  void fail(std::size_t scenario, const std::string& variant,
            const std::string& check, const std::string& detail) {
    failures_.push_back({scenario, variant, check, detail});
    std::cerr << "FAIL scenario " << scenario << " [" << variant << "] "
              << check << ": " << detail << "\n  repro: fuzz_sim --seed "
              << opt_.seed << " --replay " << scenario << "\n";
  }

  void check_round_trip(std::size_t index, const VariantSpec& variant,
                        const core::SimulationResult& result);

  FuzzOptions opt_;
  std::vector<Failure> failures_;
  std::size_t simulations_ = 0;
  std::size_t records_checked_ = 0;
  std::size_t lockstep_ticks_ = 0;
};

void FuzzRun::check_round_trip(std::size_t index, const VariantSpec& variant,
                               const core::SimulationResult& result) {
  {
    std::stringstream pic_csv, gpm_csv;
    core::write_pic_trace_csv(pic_csv, result.pic_records);
    core::write_gpm_trace_csv(gpm_csv, result.gpm_records);
    const auto pic_back = core::read_pic_trace_csv(pic_csv);
    const auto gpm_back = core::read_gpm_trace_csv(gpm_csv);
    bool ok = pic_back.size() == result.pic_records.size() &&
              gpm_back.size() == result.gpm_records.size();
    for (std::size_t i = 0; ok && i < pic_back.size(); ++i) {
      ok = same_pic(pic_back[i], result.pic_records[i]);
    }
    for (std::size_t i = 0; ok && i < gpm_back.size(); ++i) {
      ok = same_gpm(gpm_back[i], result.gpm_records[i], true);
    }
    if (!ok) {
      fail(index, variant.name, "csv-round-trip",
           "CSV write/read did not reproduce the trace bit-exactly");
    }
  }
  {
    std::stringstream mixed;  // both record types interleaved in one stream
    std::size_t g = 0;
    for (std::size_t p = 0; p < result.pic_records.size(); ++p) {
      while (g < result.gpm_records.size() &&
             result.gpm_records[g].time_s <= result.pic_records[p].time_s) {
        core::write_gpm_record_jsonl(mixed, result.gpm_records[g++]);
      }
      core::write_pic_record_jsonl(mixed, result.pic_records[p]);
    }
    while (g < result.gpm_records.size()) {
      core::write_gpm_record_jsonl(mixed, result.gpm_records[g++]);
    }
    std::stringstream pic_in(mixed.str()), gpm_in(mixed.str());
    const auto pic_back = core::read_pic_trace_jsonl(pic_in);
    const auto gpm_back = core::read_gpm_trace_jsonl(gpm_in);
    bool ok = pic_back.size() == result.pic_records.size() &&
              gpm_back.size() == result.gpm_records.size();
    for (std::size_t i = 0; ok && i < pic_back.size(); ++i) {
      ok = same_pic(pic_back[i], result.pic_records[i]);
    }
    for (std::size_t i = 0; ok && i < gpm_back.size(); ++i) {
      ok = same_gpm(gpm_back[i], result.gpm_records[i], true);
    }
    if (!ok) {
      fail(index, variant.name, "jsonl-round-trip",
           "JSONL write/read did not reproduce the trace bit-exactly");
    }
  }
}

bool FuzzRun::run_scenario(std::size_t index) {
  const std::size_t before = failures_.size();
  // Independent per-scenario stream: replaying scenario K regenerates the
  // identical configuration without walking the first K-1 scenarios.
  util::Xoshiro256pp rng(opt_.seed + 0x9e3779b97f4a7c15ULL *
                                         static_cast<std::uint64_t>(index + 1));
  double duration = 0.0;
  const core::SimulationConfig base = random_config(rng, duration);

  std::vector<core::SimulationConfig> configs;
  for (const VariantSpec& v : kVariants) {
    core::SimulationConfig c = base;
    c.manager = v.manager;
    c.policy = v.policy;
    configs.push_back(std::move(c));
  }

  // Serial pass: every variant under the invariant checker, plus trace
  // round-trips. Simulations are kept alive for the time-slicing check (the
  // calibration is reused by start()).
  std::vector<std::unique_ptr<core::Simulation>> sims;
  std::vector<core::SimulationResult> serial;
  for (std::size_t v = 0; v < kNumVariants; ++v) {
    try {
      sims.push_back(std::make_unique<core::Simulation>(configs[v]));
      core::InvariantChecker checker(core::checker_config_for(*sims[v]));
      core::InMemorySink mem;
      core::CheckingSink sink(checker, mem);
      serial.push_back(sims[v]->run(duration, sink));
      ++simulations_;
      records_checked_ +=
          checker.pic_records_checked() + checker.gpm_records_checked();
      if (!checker.ok()) {
        fail(index, kVariants[v].name, "invariant", checker.summary());
      }
      check_round_trip(index, kVariants[v], serial.back());
    } catch (const std::exception& e) {
      fail(index, kVariants[v].name, "exception", e.what());
      return !(opt_.fail_fast && failures_.size() > before);
    }
  }

  // Differential: serial vs parallel_map over the full pipeline.
  try {
    const auto parallel = util::parallel_map<core::SimulationResult>(
        kNumVariants, [&configs, duration](std::size_t v) {
          core::Simulation sim(configs[v]);
          return sim.run(duration);
        });
    simulations_ += kNumVariants;
    for (std::size_t v = 0; v < kNumVariants; ++v) {
      const std::string diff = diff_results(serial[v], parallel[v]);
      if (!diff.empty()) {
        fail(index, kVariants[v].name, "serial-vs-parallel",
             "first divergence: " + diff);
      }
    }
  } catch (const std::exception& e) {
    fail(index, "all", "parallel-exception", e.what());
  }

  // Differential: serial vs the five variants stepped in lockstep as one
  // RunBatch through one batched plant and tick ledger.
  try {
    std::vector<core::InMemorySink> sinks(kNumVariants);
    std::vector<core::Simulation*> sim_ptrs;
    std::vector<core::RecordSink*> sink_ptrs;
    for (std::size_t v = 0; v < kNumVariants; ++v) {
      sim_ptrs.push_back(sims[v].get());
      sink_ptrs.push_back(&sinks[v]);
    }
    core::RunBatch batch(sim_ptrs, sink_ptrs);
    batch.advance(duration);
    simulations_ += kNumVariants;
    for (std::size_t v = 0; v < kNumVariants; ++v) {
      const core::SimulationResult result = batch.run(v).finish();
      std::string diff = diff_results(serial[v], result);
      if (diff.empty() && record_digest(serial[v]) != record_digest(result)) {
        diff = "record digest";
      }
      if (!diff.empty()) {
        fail(index, kVariants[v].name, "batch-vs-serial",
             "first divergence: " + diff);
      }
    }
  } catch (const std::exception& e) {
    fail(index, "all", "batch-exception", e.what());
  }

  // Differential: sim::Chip vs the reference chip, in lockstep over as
  // many ticks as a variant's calibration and run together, under a random
  // stream of actuator calls and migrations, first on the scenario's chip
  // alone and then in a batch of 2-4 chips (the scenario's and others with
  // their own seeds and mixes), each against its own reference chip. The
  // streams and the batch's chips have their own seeds, so the scenario's
  // other draws are unchanged. SimulationRun is a deterministic function of
  // the per-tick outputs compared here and of those calls, so any drift of
  // the chip's tick shows here as the first divergent tick.
  try {
    const std::size_t ticks =
        static_cast<std::size_t>(duration / base.cmp.tick_seconds() + 0.5) +
        40 * base.cmp.ticks_per_pic_interval;
    const reference::LockstepReport lockstep = reference::run_random_lockstep(
        base.cmp, base.mix, base.seed, base.seed ^ 0x10C57E9ULL, ticks);
    lockstep_ticks_ += lockstep.ticks;
    if (!lockstep.divergence.empty()) {
      fail(index, "chip", "chip-vs-reference",
           "first divergence: " + lockstep.divergence);
    }
    util::Xoshiro256pp batch_rng(base.seed ^ 0xBA7C4ED5ULL);
    const std::size_t chips = 2 + batch_rng.uniform_int(3);
    std::vector<workload::Mix> mixes{base.mix};
    std::vector<sim::ChipSpec> specs{{nullptr, base.seed}};
    for (std::size_t k = 1; k < chips; ++k) {
      mixes.push_back(random_mix(batch_rng, base.cmp.num_islands,
                                 base.cmp.cores_per_island));
      specs.push_back({nullptr, batch_rng()});
    }
    for (std::size_t k = 0; k < chips; ++k) specs[k].mix = &mixes[k];
    const reference::LockstepReport batch = reference::run_random_lockstep(
        base.cmp, specs, batch_rng(), ticks);
    lockstep_ticks_ += batch.ticks * chips;
    if (!batch.divergence.empty()) {
      fail(index, "chip", "batch-vs-reference",
           std::to_string(chips) + " chips, first divergence: " +
               batch.divergence);
    }
  } catch (const std::exception& e) {
    fail(index, "chip", "lockstep-exception", e.what());
  }

  // Differential: 1-thread vs N-thread ClusterPowerManager over a small
  // random fleet (random objective, share floor, integral trim), then N
  // threads at another shard size, every chip under an InvariantChecker in
  // every run. Later fleets reuse the first fleet's calibrations (chip
  // configs are identical), so the whole pipeline from provisioning to
  // per-chip traces must match bit-exactly.
  try {
    // 2..7 chips; one scenario in eight draws 17..20, past the 16-chip
    // lockstep cap of the one-thread run.
    const std::size_t fleet_size =
        index % 8 == 7 ? 17 + rng.uniform_int(4) : 2 + index % 6;
    std::vector<core::SimulationConfig> chip_cfgs;
    for (std::size_t c = 0; c < fleet_size; ++c) {
      core::SimulationConfig cfg = base;
      // The cluster tier is the binding constraint.
      cfg.budget_fraction = 1.0;
      cfg.budget_schedule.clear();
      cfg.seed = rng();
      if (c % 2 == 1) {
        cfg.mix =
            random_mix(rng, cfg.cmp.num_islands, cfg.cmp.cores_per_island);
      }
      chip_cfgs.push_back(std::move(cfg));
    }
    core::ClusterConfig cluster_cfg;
    cluster_cfg.budget_fraction = rng.uniform(0.5, 0.95);
    cluster_cfg.epoch_s = base.cmp.gpm_interval_s;
    cluster_cfg.efficiency_smoothing = rng.uniform(0.2, 0.8);
    cluster_cfg.min_share =
        rng.uniform(0.0, 0.8 / static_cast<double>(fleet_size));
    cluster_cfg.objective = rng.bernoulli(0.5)
                                ? core::ClusterObjective::kEfficiency
                                : core::ClusterObjective::kEnergyOptimal;
    if (rng.bernoulli(0.5)) cluster_cfg.integral_gain = rng.uniform(0.05, 0.3);
    cluster_cfg.keep_chip_results = true;
    const std::size_t n_threads = 2 + rng.uniform_int(3);  // 2..4
    // A shard's chips share the scenario's plant configuration, so on the
    // N-thread run this is also the lockstep width, up to the 16-chip cap.
    const std::size_t width = 2 + rng.uniform_int(fleet_size - 1);

    std::vector<core::CalibrationResult> calibrations;
    std::vector<double> max_powers;
    auto run_fleet = [&](std::size_t threads, std::size_t shard_size) {
      std::vector<std::unique_ptr<core::Simulation>> chips;
      for (std::size_t c = 0; c < fleet_size; ++c) {
        if (calibrations.size() > c) {
          chips.push_back(std::make_unique<core::Simulation>(
              chip_cfgs[c], calibrations[c], units::Watts{max_powers[c]}));
        } else {
          chips.push_back(std::make_unique<core::Simulation>(chip_cfgs[c]));
          calibrations.push_back(chips.back()->calibration());
          max_powers.push_back(chips.back()->max_chip_power().value());
        }
      }
      std::vector<std::unique_ptr<core::InvariantChecker>> checkers;
      for (std::size_t c = 0; c < fleet_size; ++c) {
        checkers.push_back(std::make_unique<core::InvariantChecker>(
            core::checker_config_for(*chips[c])));
      }
      core::ClusterConfig cfg = cluster_cfg;
      cfg.threads = threads;
      cfg.shard_size = shard_size;
      cfg.sink_factory = [&checkers](std::size_t c) {
        return std::make_unique<core::CheckingSink>(
            *checkers[c], std::make_unique<core::InMemorySink>());
      };
      core::ClusterPowerManager cluster(cfg, std::move(chips));
      core::ClusterResult result = cluster.run(duration);
      simulations_ += fleet_size;
      for (std::size_t c = 0; c < fleet_size; ++c) {
        records_checked_ += checkers[c]->pic_records_checked() +
                            checkers[c]->gpm_records_checked();
        if (!checkers[c]->ok()) {
          fail(index, "cluster", "cluster-invariant",
               "chip " + std::to_string(c) + ": " + checkers[c]->summary());
        }
      }
      if (result.invariant_violations != 0) {
        fail(index, "cluster", "cluster-tier-invariant",
             result.first_violation);
      }
      return result;
    };
    const core::ClusterResult one = run_fleet(1, width);
    const std::string diff = diff_cluster(one, run_fleet(n_threads, width));
    if (!diff.empty()) {
      fail(index, "cluster", "cluster-threads", "first divergence: " + diff);
    }
    const std::string reshard_diff =
        diff_cluster(one, run_fleet(n_threads, 1));
    if (!reshard_diff.empty()) {
      fail(index, "cluster", "cluster-shards",
           "width " + std::to_string(width) +
               " vs 1, first divergence: " + reshard_diff);
    }
  } catch (const std::exception& e) {
    fail(index, "cluster", "cluster-exception", e.what());
  }

  // Differential: advance(T) == sum of random sub-interval advances, on a
  // rotating variant (reusing the serial pass's calibration).
  const std::size_t v = index % kNumVariants;
  try {
    auto run = sims[v]->start();
    double remaining = duration;
    while (remaining > 0.0) {
      double slice = remaining <= duration * 0.05
                         ? remaining
                         : remaining * rng.uniform(0.1, 0.6);
      run->advance(slice);
      remaining -= slice;
    }
    core::SimulationResult split = run->finish();
    ++simulations_;
    const std::string diff = diff_results(serial[v], split);
    if (!diff.empty()) {
      fail(index, kVariants[v].name, "advance-splitting",
           "first divergence: " + diff);
    }
  } catch (const std::exception& e) {
    fail(index, kVariants[v].name, "split-exception", e.what());
  }

  return !(opt_.fail_fast && failures_.size() > before);
}

bool parse_uint(const char* text, std::uint64_t& out) {
  try {
    std::size_t used = 0;
    out = std::stoull(text, &used);
    return used == std::string(text).size();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_uint = [&](std::uint64_t& out) {
      return i + 1 < argc && parse_uint(argv[++i], out);
    };
    std::uint64_t value = 0;
    if (arg == "--scenarios" && next_uint(value)) {
      opt.scenarios = static_cast<std::size_t>(value);
    } else if (arg == "--seed" && next_uint(value)) {
      opt.seed = value;
    } else if (arg == "--replay" && next_uint(value)) {
      opt.replay = static_cast<std::size_t>(value);
    } else if (arg == "--fail-fast") {
      opt.fail_fast = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "fuzz_sim [--scenarios N] [--seed S] [--replay K] "
                   "[--fail-fast]\n";
      return 0;
    } else {
      std::cerr << "fuzz_sim: bad argument '" << arg << "'\n";
      return 2;
    }
  }

  FuzzRun fuzz(opt);
  const std::size_t first = opt.replay.value_or(0);
  const std::size_t count = opt.replay ? 1 : opt.scenarios;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t index = first + k;
    if (!fuzz.run_scenario(index)) break;
    if ((k + 1) % 50 == 0 || k + 1 == count) {
      std::cout << "fuzz: " << (k + 1) << "/" << count << " scenarios, "
                << fuzz.simulations() << " simulations, "
                << fuzz.records_checked() << " records checked, "
                << fuzz.lockstep_ticks() << " lockstep chip ticks, "
                << fuzz.failures().size() << " failures\n";
    }
  }

  if (!fuzz.failures().empty()) {
    std::cerr << "fuzz_sim: " << fuzz.failures().size()
              << " failure(s); reproduce with --seed " << opt.seed
              << " --replay <scenario>\n";
    return 1;
  }
  std::cout << "fuzz_sim: all scenarios passed (seed " << opt.seed << ")\n";
  return 0;
}
