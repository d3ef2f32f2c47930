// The coordinated power-management simulation: wires the CMP substrate
// (sim::Chip), the power model, the RC thermal model, and one of three chip
// managers --
//   * CPM  : the paper's two-tier GPM + per-island PID PICs (the contribution)
//   * MaxBIPS : the open-loop prediction-table baseline [17]
//   * NoDVFS  : all cores at fmax (performance-degradation reference)
// -- and runs the tick/PIC/GPM timeline of paper Fig. 4. Before the measured
// run, the per-island transducers (Fig. 6) and plant gains a_i (Fig. 5) are
// identified on a calibration run with the same seed, exactly as the paper
// calibrates offline against Wattch traces.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <optional>
#include <span>
#include <vector>

#include "control/stability.h"
#include "core/energy_policy.h"
#include "core/migration.h"
#include "core/qos_policy.h"
#include "core/gpm.h"
#include "core/maxbips.h"
#include "core/pic.h"
#include "core/perf_policy.h"
#include "core/thermal_policy.h"
#include "core/tick_ledger.h"
#include "core/types.h"
#include "core/variation_policy.h"
#include "power/model.h"
#include "power/sensor.h"
#include "sim/chip.h"
#include "util/units.h"
#include "thermal/rc_model.h"

namespace cpm::core {

enum class ManagerKind { kCpm, kMaxBips, kNoDvfs };
enum class PolicyKind { kPerformance, kThermal, kVariation, kEnergy, kQos };

struct SimulationConfig {
  sim::CmpConfig cmp = sim::CmpConfig::default_8core();
  workload::Mix mix;  // topology must match `cmp`
  std::uint64_t seed = 42;

  ManagerKind manager = ManagerKind::kCpm;
  PolicyKind policy = PolicyKind::kPerformance;
  /// Chip power budget as a fraction of maximum chip power (paper: 0.8).
  double budget_fraction = 0.8;
  /// Optional runtime budget schedule: (time_s, fraction) pairs applied at
  /// the first GPM boundary at or after time_s (rack-level cap changes,
  /// battery events, ...). Must be sorted by time.
  std::vector<std::pair<double, double>> budget_schedule;

  control::PidGains pid_gains{};  // paper defaults (0.4, 0.4, 0.3)
  /// PIC actuation knobs (see PicConfig).
  double pic_max_step_ghz = 0.4;
  double pic_deadband_pct = 0.75;
  /// Observer-based sensing filter (0 = off; see PicConfig::observer_gain).
  double pic_observer_gain = 0.0;
  PerfPolicyConfig perf_policy{};
  /// Thermal-policy constraints; adjacency pairs are auto-derived from the
  /// floorplan when left empty.
  ThermalConstraints thermal_constraints{};
  VariationPolicyConfig variation_policy{};
  /// Energy-aware policy parameters; reference_bips of 0 is auto-filled
  /// from the calibration run's fmax throughput.
  EnergyPolicyConfig energy_policy{};
  /// QoS policy parameters (per-island minimum-BIPS SLAs).
  QosPolicyConfig qos_policy{};

  /// Per-island leakage multipliers (Sec. IV-B); empty = homogeneous die.
  std::vector<double> island_leak_mults;

  /// Duration of the offline calibration run (transducer + plant gain id).
  /// Must be finite and >= 0; the run lasts at least 16 PIC intervals.
  double calibration_seconds = 0.1;

  thermal::ThermalParams thermal_params{};
  double hotspot_threshold_c = 85.0;

  /// Extension: keep re-fitting the transducers online during the run
  /// (AdaptiveTransducer) instead of freezing the offline calibration.
  bool adaptive_transducer = false;
  /// Extension/ablation: gaussian noise (std, as a fraction) injected into
  /// the utilization sensor.
  double sensor_noise_sigma = 0.0;
  /// Ablation: let MaxBIPS re-predict from live per-interval measurements
  /// instead of its paper-faithful static prediction table.
  bool maxbips_dynamic = false;
  /// Extension: runtime thread migration toward homogeneous islands
  /// (Fig. 16's grouping effect), one proposed swap per GPM interval.
  bool enable_migration = false;
  MigrationConfig migration{};
};

struct CalibrationResult {
  std::vector<power::TransducerModel> transducers;   // per island
  std::vector<double> plant_gains;                   // a_i, %power per GHz
  std::vector<double> plant_gain_r2;
  /// Per-island peak power and mean BIPS observed at fmax (phase A). These
  /// seed MaxBIPS's *static* prediction table: the open-loop baseline scales
  /// this fixed characterization instead of reacting to live measurements,
  /// which is why it under-consumes the budget (paper Fig. 11).
  std::vector<double> island_peak_power_w;
  std::vector<double> island_fmax_bips;
  std::vector<double> island_fmax_leakage_w;
};

struct SimulationResult {
  /// Retained per-interval traces. With the default in-memory sink these
  /// hold every record; a bounded sink retains at most its capacity and a
  /// streaming sink leaves them empty (the trace went to disk).
  std::vector<PicIntervalRecord> pic_records;
  std::vector<GpmIntervalRecord> gpm_records;
  /// Total records the run produced (>= the vector sizes above whenever a
  /// bounded or streaming sink dropped/spilled records).
  std::size_t pic_records_seen = 0;
  std::size_t gpm_records_seen = 0;

  double duration_s = 0.0;
  double max_chip_power_w = 0.0;  // the percentage scale
  double budget_w = 0.0;
  double total_instructions = 0.0;
  double avg_chip_power_w = 0.0;
  double avg_chip_bips = 0.0;
  double hotspot_fraction = 0.0;
  double dvfs_transitions = 0.0;  // total across islands
  std::size_t migrations = 0;     // executed thread swaps
  CalibrationResult calibration;

  /// Per-island aggregates over the whole run.
  std::vector<double> island_instructions;
  std::vector<double> island_energy_j;  // true energy
  std::vector<double> island_avg_bips;
  /// DVFS residency: fraction of PIC intervals spent at each level, per
  /// island (island-major, num_islands x num_levels).
  std::vector<std::vector<double>> island_level_residency;
};

/// Returns a near-square floorplan for `num_cores` (8 -> 2x4, 16 -> 4x4,
/// 32 -> 4x8).
thermal::Floorplan make_floorplan(std::size_t num_cores);

/// Derives island adjacency pairs from core adjacency on the floorplan
/// (cores are laid out island-major, i.e. island i owns cores
/// [i*k, (i+1)*k)).
std::vector<std::pair<std::size_t, std::size_t>> island_adjacency(
    const thermal::Floorplan& floorplan, std::size_t num_islands,
    std::size_t cores_per_island);

/// The thermal constraints a CPM/thermal run actually enforces: the
/// configured ones, with an empty adjacency list auto-derived from the
/// floorplan and the caps rescaled to this chip's island count (the struct's
/// literal defaults are the paper's 8-island constants). Shared by the
/// simulation wiring and the invariant checker so both see the same limits.
ThermalConstraints resolved_thermal_constraints(const SimulationConfig& config);

/// Whether chips of `a` and `b` can share one ChipPlant: the same CMP
/// config and thermal parameters, which hold every value the plant's
/// kernels read as a scalar. Seeds, mixes, leakage multipliers, managers,
/// policies and budgets may differ.
bool same_plant(const SimulationConfig& a, const SimulationConfig& b);

/// The controlled plant of a batch of chips that share one plant
/// configuration (same_plant): the chips, their per-core power sweep and
/// the RC thermal model, stepped one tick at a time in lockstep, with every
/// per-core sweep run once over the whole batch. `step()` is the only place
/// a plant tick is computed, so the offline calibration that fits the
/// transducers and plant gains (paper Figs. 5-6) and the live run that the
/// PICs then control step the same model; a solo run is a batch of one.
/// Chip k owns flat islands [k * I, (k + 1) * I) and cores [k * C, (k + 1)
/// * C) of chip() and thermal() (I islands, C cores per chip), and steps
/// bit for bit as it would alone.
class ChipPlant {
 public:
  /// Builds one chip per config (per-core record mirrors off) and the RC
  /// thermal model of them all; every config must be same_plant with the
  /// first, else std::invalid_argument. `power` (the first config's model:
  /// only its scalar constants are read, each chip's leakage multipliers
  /// come from its own config) is borrowed and must outlive the plant.
  ChipPlant(std::span<const SimulationConfig* const> chips,
            const power::PowerModel& power);
  /// A batch of one.
  ChipPlant(const SimulationConfig& config, const power::PowerModel& power);

  /// Advances every chip one tick: Chip::step, then the flat
  /// chip_power_batch sweep at the pre-step core temperatures, then the
  /// island sums in flat core order, then the RC thermal step. A non-empty
  /// `core_leak_w` (one slot per core of the batch) also receives each
  /// core's leakage. Each chip's record is chip().tick(k), overwritten by
  /// the next step().
  void step(double dt, std::span<double> core_leak_w = {});

  std::size_t num_chips() const noexcept { return chip_power_w_.size(); }
  sim::Chip& chip() noexcept { return chip_; }
  const sim::Chip& chip() const noexcept { return chip_; }
  const thermal::RcThermalModel& thermal() const noexcept { return thermal_; }
  /// Every island's power of the last step, flat over the batch (chip k's
  /// island i at [k * I + i]).
  std::span<const double> island_power_w() const noexcept {
    return island_power_w_;
  }
  /// Every chip's power of the last step (each the sum of its island
  /// powers).
  std::span<const double> chip_power_w() const noexcept {
    return chip_power_w_;
  }

 private:
  const power::PowerModel* power_;
  sim::Chip chip_;
  thermal::RcThermalModel thermal_;
  std::size_t islands_;  // per chip
  /// Per-core island leakage multiplier in flat island-major order (process
  /// variation stays with the island, so migration does not move it).
  std::vector<double> core_leak_mult_;
  std::vector<double> island_power_w_;  // flat over the batch's islands
  std::vector<double> chip_power_w_;    // one per chip
};

/// What the offline calibration run of one chip yields: the calibration a
/// Simulation reuses, and the unmanaged peak chip power it measured.
struct ChipCalibration {
  CalibrationResult calibration;
  units::Watts max_chip_power;
};

/// Runs the offline calibration of every config (transducer and plant-gain
/// identification, paper Figs. 5-6), stepping each maximal run of
/// consecutive same_plant configs in lockstep through one ChipPlant. Chip k's
/// result is bit for bit what Simulation(configs[k]) computes (that
/// constructor calls this with one config). Each config is validated as
/// Simulation's constructor validates it (std::invalid_argument).
std::vector<ChipCalibration> calibrate_chips(
    std::span<const SimulationConfig> configs);

class Simulation;
class RecordSink;
class RunBatch;

/// A live, resumable simulation: the state `Simulation::run` would hold on
/// its stack, promoted to an object so a supervising layer (e.g. a rack
/// manager splitting a datacenter budget across chips) can interleave
/// `advance()` calls with budget updates. Obtain one from
/// `Simulation::start()`; `advance()` any number of times; `finish()` once.
/// The owning Simulation must outlive its runs (the run borrows the
/// calibration and power model). A run started by a RunBatch shares the
/// batch's plant and tick ledger and advances only through
/// RunBatch::advance; a solo run owns a plant and ledger of one chip.
class SimulationRun {
 public:
  ~SimulationRun();

  /// Advances the live system by `seconds`. Whole ticks are executed
  /// immediately; a fractional tick remainder is carried over to the next
  /// call, so repeated sub-interval stepping (e.g. a supervisor advancing by
  /// 0.4 of a tick) neither loses nor double-counts time. A run of a
  /// RunBatch of two or more throws std::logic_error (its plant steps the
  /// batch's other chips too).
  void advance(double seconds);

  /// Finalizes aggregates, publishes the run's counts (chip ticks, PIC/GPM
  /// invocations and their histograms) to the process-wide metrics registry,
  /// and returns the full trace. The run is spent afterwards (further
  /// advance() calls throw).
  SimulationResult finish();

  /// Re-targets the chip budget; takes effect at the next GPM boundary
  /// (exactly like a budget_schedule entry).
  void set_budget(units::Watts budget);

  double elapsed_s() const noexcept;
  units::Watts budget() const noexcept {
    return units::Watts{live_budget_w_};
  }
  /// Mean chip power / BIPS over everything simulated so far.
  units::Watts mean_power() const noexcept {
    return units::Watts{ledger_->mean_power_w[slot_]};
  }
  double mean_bips() const noexcept { return ledger_->mean_bips[slot_]; }
  /// Instructions retired so far. Like the other live observables, invalid
  /// once finish() has consumed the run (throws).
  double instructions() const;
  /// Mean chip power over the last completed GPM window (0 before the
  /// first window) -- the observable a rack tier provisions on.
  units::Watts last_window_power() const;
  double last_window_bips() const;

 private:
  friend class Simulation;
  friend class RunBatch;
  /// A run of chip `slot` of `plant` and `ledger`, or with a plant and
  /// ledger of its own when `plant` is null.
  SimulationRun(Simulation& owner, RecordSink* sink, ChipPlant* plant,
                TickLedger* ledger, std::size_t slot);

  /// Validates an advance() by `seconds` and returns its whole tick count,
  /// carrying the fractional remainder.
  std::uint64_t take_ticks(double seconds);
  /// Advances `runs`, which are every chip of `plant` and `ledger`, by
  /// `seconds` in lockstep: each tick steps the plant once and adds it to
  /// the ledger once, then every run whose migration advisor samples
  /// utilization does so, and on a PIC/GPM boundary each run runs its own.
  static void advance_lockstep(ChipPlant& plant, TickLedger& ledger,
                               std::span<SimulationRun* const> runs,
                               double seconds);
  /// Adds this tick's frequency-normalized per-core utilization to the
  /// migration advisor's window sums.
  void sample_core_utilization();
  /// The boundaries read this run's islands of the ledger's interval sums;
  /// the ledger's next tick starts them over.
  void pic_boundary(double now);
  void gpm_boundary(double now);
  sim::DvfsActuator& actuator(std::size_t island) noexcept {
    return plant_->chip().actuator(island0_ + island);
  }

  Simulation* owner_;
  // Substrate: the plant and ledger (owned by a solo run, else by its
  // RunBatch) and this run's chip in them.
  std::unique_ptr<ChipPlant> owned_plant_;
  std::unique_ptr<TickLedger> owned_ledger_;
  ChipPlant* plant_;
  TickLedger* ledger_;
  std::size_t slot_;
  std::size_t island0_;  // the chip's first flat island
  std::size_t core0_;    // the chip's first flat core
  util::Xoshiro256pp sensor_rng_;
  // Managers.
  std::unique_ptr<Gpm> gpm_;
  std::unique_ptr<MaxBipsManager> maxbips_;
  std::vector<Pic> pics_;
  std::vector<power::AdaptiveTransducer> adaptive_;
  std::vector<IslandObservation> maxbips_static_;
  MigrationAdvisor migration_advisor_;
  // Cadence (the ledger counts the ticks): every PIC interval lasts
  // ticks_per_pic_ ticks and every GPM window pics_per_gpm_ intervals.
  double dt_;
  std::size_t n_;
  std::size_t ticks_per_pic_;
  std::size_t pics_per_gpm_;
  double tick_carry_ = 0.0;  // fractional ticks owed by advance()
  std::vector<double> gpm_sensed_energy_;
  // gpm_boundary's observation and record buffers, reused every window.
  std::vector<IslandObservation> gpm_obs_;
  GpmIntervalRecord gpm_rec_;
  std::vector<double> core_util_sum_;
  std::size_t core_util_ticks_ = 0;
  std::size_t migration_cooldown_ = 0;
  double fmax_;
  // Budget state.
  std::size_t schedule_cursor_ = 0;
  double live_budget_w_;
  double pending_budget_w_ = -1.0;  // <0: none pending
  // Run-owned observation, published to the process-wide metrics registry
  // (util/metrics.h) once, by finish(): |error| after every PIC invocation
  // and the summed observed island power before every GPM invocation.
  // Their counts are the invocation counts.
  util::RunningStats pic_abs_error_stats_;
  util::RunningStats gpm_observed_power_stats_;
  SimulationResult result_;
  // Record routing: every PIC/GPM record goes to `sink_` (borrowed, or the
  // internally owned default InMemorySink).
  std::unique_ptr<RecordSink> owned_sink_;
  RecordSink* sink_;
  double last_gpm_power_w_ = 0.0;
  double last_gpm_bips_ = 0.0;
  bool finished_ = false;
};

/// Live runs of chips that share one plant configuration (same_plant),
/// stepped in lockstep through one ChipPlant: each tick steps the plant
/// once and adds it to the batch's TickLedger once, and on a PIC/GPM
/// boundary every run runs its own boundaries, sink, budget and
/// observables. Bit for bit, each run is what Simulation::start would give.
/// The Simulations must outlive the batch.
class RunBatch {
 public:
  /// Starts a run of each simulation, routing run k's records to sinks[k]
  /// (borrowed; must outlive the batch). The spans must have equal, nonzero
  /// length and the simulations must be same_plant, else
  /// std::invalid_argument.
  RunBatch(std::span<Simulation* const> sims,
           std::span<RecordSink* const> sinks);

  /// Advances every run by `seconds` (see SimulationRun::advance).
  void advance(double seconds);
  std::size_t size() const noexcept { return runs_.size(); }
  SimulationRun& run(std::size_t k) noexcept { return *runs_[k]; }

 private:
  std::unique_ptr<ChipPlant> plant_;
  std::unique_ptr<TickLedger> ledger_;
  std::vector<std::unique_ptr<SimulationRun>> runs_;
  std::vector<SimulationRun*> handles_;  // runs_ as advance_lockstep takes them
};

class Simulation {
 public:
  explicit Simulation(SimulationConfig config);

  /// Constructs with a calibration reused from another simulation instead of
  /// re-running the offline calibration. Valid whenever the chip config,
  /// mix, seed, leakage multipliers and thermal parameters match the
  /// simulation that produced `calibration` -- the calibration run never
  /// looks at the manager, policy, or budget, so manager matchups and budget
  /// sweeps qualify. `max_chip_power` is the producing simulation's
  /// max_chip_power(). The calibration's per-island shape is validated;
  /// semantic equality of the configs is the caller's contract.
  Simulation(SimulationConfig config, const CalibrationResult& calibration,
             units::Watts max_chip_power);

  /// Runs for `duration_s` simulated seconds and returns the full trace
  /// (equivalent to start() + advance(duration_s) + finish()). The overload
  /// taking a RecordSink routes the per-interval records through it instead
  /// of the default in-memory sink (the sink must outlive the call).
  SimulationResult run(double duration_s);
  SimulationResult run(double duration_s, RecordSink& sink);

  /// Starts a resumable run (see SimulationRun). The sink, when given, is
  /// borrowed and must outlive the run.
  std::unique_ptr<SimulationRun> start();
  std::unique_ptr<SimulationRun> start(RecordSink& sink);

  /// "Maximum chip power": the unmanaged (all-fmax) peak chip power measured
  /// during calibration. Budgets are fractions of this, as in the paper.
  units::Watts max_chip_power() const noexcept {
    return units::Watts{max_power_w_};
  }
  units::Watts budget() const noexcept { return units::Watts{budget_w_}; }
  const CalibrationResult& calibration() const noexcept { return calibration_; }
  const SimulationConfig& config() const noexcept { return config_; }

  /// Dynamic-power scale factor (V^2 f) of `level` relative to the top level
  /// (the transducer's calibration reference).
  double level_scale(std::size_t level) const noexcept {
    return level_scale_[level];
  }

 private:
  friend class SimulationRun;
  friend class RunBatch;
  Simulation(SimulationConfig config, const CalibrationResult* calibration,
             units::Watts max_chip_power);

  SimulationConfig config_;
  power::PowerModel power_model_;
  double max_power_w_ = 0.0;
  double budget_w_ = 0.0;
  std::vector<double> level_scale_;  // level_scale(), one entry per level
  CalibrationResult calibration_;
};

}  // namespace cpm::core
