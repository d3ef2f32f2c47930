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
#include "core/types.h"
#include "core/variation_policy.h"
#include "power/model.h"
#include "power/sensor.h"
#include "sim/chip.h"
#include "thermal/hotspot.h"
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

/// The controlled plant: the chip, its per-core power sweep and the RC
/// thermal model, stepped one tick at a time. `step()` is the only place a
/// plant tick is computed, so the offline calibration that fits the
/// transducers and plant gains (paper Figs. 5-6) and the live run that the
/// PICs then control step the same model.
class ChipPlant {
 public:
  /// Builds the chip (per-core record mirrors off) and the RC thermal model
  /// from `config`. `power` is borrowed and must outlive the plant.
  ChipPlant(const SimulationConfig& config, const power::PowerModel& power);

  /// Advances one tick: Chip::step, then the flat chip_power_batch sweep at
  /// the pre-step core temperatures, then the island sums in flat core
  /// order, then the RC thermal step. A non-empty `core_leak_w` (one slot per
  /// core) also receives each core's leakage. The returned record is
  /// overwritten by the next step().
  const sim::ChipTick& step(double dt, std::span<double> core_leak_w = {});

  sim::Chip& chip() noexcept { return chip_; }
  const thermal::RcThermalModel& thermal() const noexcept { return thermal_; }
  /// Per-island power of the last step.
  std::span<const double> island_power_w() const noexcept {
    return island_power_w_;
  }
  /// Chip power of the last step (the sum of the island powers).
  double chip_power_w() const noexcept { return chip_power_w_; }

 private:
  const power::PowerModel* power_;
  sim::Chip chip_;
  thermal::RcThermalModel thermal_;
  /// Per-core island leakage multiplier in flat island-major order (process
  /// variation stays with the island, so migration does not move it).
  std::vector<double> core_leak_mult_;
  std::vector<double> island_power_w_;
  double chip_power_w_ = 0.0;
};

class Simulation;
class RecordSink;

/// A live, resumable simulation: the state `Simulation::run` would hold on
/// its stack, promoted to an object so a supervising layer (e.g. a rack
/// manager splitting a datacenter budget across chips) can interleave
/// `advance()` calls with budget updates. Obtain one from
/// `Simulation::start()`; `advance()` any number of times; `finish()` once.
/// The owning Simulation must outlive its runs (the run borrows the
/// calibration and power model).
class SimulationRun {
 public:
  ~SimulationRun();

  /// Advances the live system by `seconds`. Whole ticks are executed
  /// immediately; a fractional tick remainder is carried over to the next
  /// call, so repeated sub-interval stepping (e.g. a supervisor advancing by
  /// 0.4 of a tick) neither loses nor double-counts time.
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
    return units::Watts{chip_power_mean_.mean()};
  }
  double mean_bips() const noexcept { return chip_bips_mean_.mean(); }
  /// Instructions retired so far. Like the other live observables, invalid
  /// once finish() has consumed the run (throws).
  double instructions() const;
  /// Mean chip power over the last completed GPM window (0 before the
  /// first window) -- the observable a rack tier provisions on.
  units::Watts last_window_power() const;
  double last_window_bips() const;

 private:
  friend class Simulation;
  SimulationRun(Simulation& owner, RecordSink* sink);

  void tick_once();
  void pic_boundary(double now);
  void gpm_boundary(double now);

  Simulation* owner_;
  // Substrate.
  ChipPlant plant_;
  thermal::HotspotDetector hotspots_;
  util::Xoshiro256pp sensor_rng_;
  // Managers.
  std::unique_ptr<Gpm> gpm_;
  std::unique_ptr<MaxBipsManager> maxbips_;
  std::vector<Pic> pics_;
  std::vector<power::AdaptiveTransducer> adaptive_;
  std::vector<IslandObservation> maxbips_static_;
  MigrationAdvisor migration_advisor_;
  // Cadence.
  double dt_;
  std::size_t n_;
  std::size_t ticks_per_pic_;
  std::size_t ticks_to_pic_;  // ticks left before the next PIC boundary
  std::size_t pics_per_gpm_;
  std::uint64_t tick_ = 0;
  double tick_carry_ = 0.0;  // fractional ticks owed by advance()
  std::size_t pic_count_in_window_ = 0;
  // Rolling per-interval accumulators (also the calibration run's).
  struct Accum {
    double utilization = 0.0, bips = 0.0, instructions = 0.0, power_w = 0.0;
    std::size_t ticks = 0;
    void add(double u, double b, double i, double p) {
      utilization += u;
      bips += b;
      instructions += i;
      power_w += p;
      ++ticks;
    }
    double mean_util() const {
      return ticks ? utilization / static_cast<double>(ticks) : 0.0;
    }
    double mean_bips() const {
      return ticks ? bips / static_cast<double>(ticks) : 0.0;
    }
    double mean_power() const {
      return ticks ? power_w / static_cast<double>(ticks) : 0.0;
    }
    /// Folds a finished sub-window into this accumulator (tick-weighted:
    /// sums and tick counts add, so means stay tick-means). Lets the GPM
    /// window accumulate once per PIC boundary instead of every tick.
    void merge(const Accum& other) {
      utilization += other.utilization;
      bips += other.bips;
      instructions += other.instructions;
      power_w += other.power_w;
      ticks += other.ticks;
    }
    void reset() { *this = Accum{}; }
  };
  std::vector<Accum> pic_accum_;
  std::vector<Accum> gpm_accum_;
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
  // Aggregation.
  util::RunningMean chip_power_mean_;
  util::RunningMean chip_bips_mean_;
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
  Simulation(SimulationConfig config, const CalibrationResult* calibration,
             units::Watts max_chip_power);
  void calibrate();

  SimulationConfig config_;
  power::PowerModel power_model_;
  double max_power_w_ = 0.0;
  double budget_w_ = 0.0;
  std::vector<double> level_scale_;  // level_scale(), one entry per level
  CalibrationResult calibration_;
};

}  // namespace cpm::core
