#include "core/simulation.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "control/system_id.h"
#include "core/record_sink.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace.h"

namespace cpm::core {

thermal::Floorplan make_floorplan(std::size_t num_cores) {
  if (num_cores == 0) throw std::invalid_argument("make_floorplan: 0 cores");
  std::size_t rows = static_cast<std::size_t>(std::sqrt(
      static_cast<double>(num_cores)));
  while (rows > 1 && num_cores % rows != 0) --rows;
  return thermal::Floorplan(rows, num_cores / rows);
}

std::vector<std::pair<std::size_t, std::size_t>> island_adjacency(
    const thermal::Floorplan& floorplan, std::size_t num_islands,
    std::size_t cores_per_island) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t a = 0; a < num_islands; ++a) {
    for (std::size_t b = a + 1; b < num_islands; ++b) {
      bool adjacent = false;
      for (std::size_t ca = 0; ca < cores_per_island && !adjacent; ++ca) {
        for (std::size_t cb = 0; cb < cores_per_island && !adjacent; ++cb) {
          adjacent = floorplan.adjacent(a * cores_per_island + ca,
                                        b * cores_per_island + cb);
        }
      }
      if (adjacent) pairs.emplace_back(a, b);
    }
  }
  return pairs;
}

ThermalConstraints resolved_thermal_constraints(const SimulationConfig& config) {
  ThermalConstraints cons = config.thermal_constraints;
  if (cons.adjacent_pairs.empty()) {
    const std::size_t n = config.cmp.num_islands;
    const ThermalConstraints scaled = ThermalConstraints::scaled_defaults(n);
    cons.single_cap_share = scaled.single_cap_share;
    cons.pair_cap_share = scaled.pair_cap_share;
    cons.adjacent_pairs =
        island_adjacency(make_floorplan(config.cmp.total_cores()), n,
                         config.cmp.cores_per_island);
  }
  return cons;
}

namespace {

/// Simulation's checks on a config, shared by the calibration (which runs
/// before the Simulation exists when make_cluster_chips batches it).
void validate_config(const SimulationConfig& config) {
  if (config.mix.num_islands() != config.cmp.num_islands ||
      config.mix.cores_per_island() != config.cmp.cores_per_island) {
    throw std::invalid_argument("Simulation: mix does not match CMP topology");
  }
  if (!(config.budget_fraction > 0.0 && config.budget_fraction <= 1.0)) {
    throw std::invalid_argument("Simulation: budget fraction out of (0,1]");
  }
  if (config.cmp.ticks_per_pic_interval == 0) {
    throw std::invalid_argument("Simulation: ticks_per_pic_interval must be > 0");
  }
  if (config.cmp.pic_invocations_per_gpm() == 0) {
    throw std::invalid_argument(
        "Simulation: PIC interval must not exceed the GPM interval");
  }
  if (!config.island_leak_mults.empty() &&
      config.island_leak_mults.size() != config.cmp.num_islands) {
    throw std::invalid_argument(
        "Simulation: leak multipliers must match island count");
  }
  // The calibration casts its tick count to std::size_t.
  const double calibration_ticks =
      config.calibration_seconds / config.cmp.tick_seconds();
  if (!(config.calibration_seconds >= 0.0 &&
        calibration_ticks <
            static_cast<double>(std::numeric_limits<std::size_t>::max()))) {
    throw std::invalid_argument(
        "Simulation: calibration_seconds must be finite, >= 0 and a "
        "representable tick count");
  }
  double prev_time = -1.0;
  for (const auto& [time_s, fraction] : config.budget_schedule) {
    if (!(fraction > 0.0 && fraction <= 1.0)) {
      throw std::invalid_argument(
          "Simulation: scheduled budget fraction out of (0,1]");
    }
    if (time_s < prev_time) {
      throw std::invalid_argument(
          "Simulation: budget_schedule must be sorted by time");
    }
    prev_time = time_s;
  }
}

/// Dynamic-power scale (V^2 f) of every DVFS level relative to the top one.
std::vector<double> level_scales(const sim::DvfsTable& dvfs) {
  const double top_scale = dvfs.level(dvfs.max_level()).dynamic_energy_scale();
  std::vector<double> scales;
  scales.reserve(dvfs.num_levels());
  for (const sim::DvfsPoint& point : dvfs.levels()) {
    scales.push_back(point.dynamic_energy_scale() / top_scale);
  }
  return scales;
}

}  // namespace

Simulation::Simulation(SimulationConfig config)
    : Simulation(std::move(config), nullptr, units::Watts{0.0}) {}

Simulation::Simulation(SimulationConfig config,
                       const CalibrationResult& calibration,
                       units::Watts max_chip_power)
    : Simulation(std::move(config), &calibration, max_chip_power) {}

Simulation::Simulation(SimulationConfig config,
                       const CalibrationResult* calibration,
                       units::Watts max_chip_power)
    : config_(std::move(config)),
      power_model_(config_.cmp, config_.island_leak_mults),
      level_scale_(level_scales(config_.cmp.dvfs)) {
  validate_config(config_);
  if (calibration == nullptr) {
    ChipCalibration own =
        std::move(calibrate_chips(std::span(&config_, 1)).front());
    calibration_ = std::move(own.calibration);
    max_power_w_ = own.max_chip_power.value();
  } else {
    // Reused calibration: the offline calibration run depends only on the
    // chip, mix, seed, leakage multipliers and thermal parameters -- not on
    // the manager, policy, or budget -- so sweeps (managed vs baseline,
    // budget grids, manager matchups) can share one calibration instead of
    // each simulation re-running an identical one. The caller vouches that
    // those inputs match; the shape is validated here.
    const std::size_t n = config_.cmp.num_islands;
    if (calibration->transducers.size() != n ||
        calibration->plant_gains.size() != n ||
        calibration->island_peak_power_w.size() != n ||
        calibration->island_fmax_bips.size() != n ||
        calibration->island_fmax_leakage_w.size() != n) {
      throw std::invalid_argument(
          "Simulation: reused calibration does not match the island count");
    }
    if (!(max_chip_power.value() > 0.0)) {
      throw std::invalid_argument(
          "Simulation: reused calibration needs a positive max chip power");
    }
    calibration_ = *calibration;
    max_power_w_ = max_chip_power.value();
  }
  budget_w_ = config_.budget_fraction * max_power_w_;
}

bool same_plant(const SimulationConfig& a, const SimulationConfig& b) {
  return a.cmp == b.cmp && a.thermal_params == b.thermal_params;
}

ChipPlant::ChipPlant(const SimulationConfig& config,
                     const power::PowerModel& power)
    : ChipPlant(std::array{&config}, power) {}

namespace {

/// The chips of a plant batch, checked to share one plant configuration.
std::vector<sim::ChipSpec> chip_specs(
    std::span<const SimulationConfig* const> chips) {
  if (chips.empty()) throw std::invalid_argument("ChipPlant: no chips");
  std::vector<sim::ChipSpec> specs;
  specs.reserve(chips.size());
  for (const SimulationConfig* config : chips) {
    if (!same_plant(*config, *chips.front())) {
      throw std::invalid_argument(
          "ChipPlant: chips of one batch must share the plant configuration");
    }
    specs.push_back({&config->mix, config->seed});
  }
  return specs;
}

}  // namespace

ChipPlant::ChipPlant(std::span<const SimulationConfig* const> chips,
                     const power::PowerModel& power)
    : power_(&power),
      chip_(chips.empty() ? sim::CmpConfig{} : chips.front()->cmp,
            chip_specs(chips)),
      thermal_(make_floorplan(chips.front()->cmp.total_cores()),
               chips.front()->thermal_params, chips.size()),
      islands_(chips.front()->cmp.num_islands),
      core_leak_mult_(chip_.num_cores()),
      island_power_w_(chip_.num_islands(), 0.0),
      chip_power_w_(chips.size(), 0.0) {
  // Per-core tick detail is consumed from the chip's SoA arrays; the
  // IslandTick record mirrors are never read on this path.
  chip_.set_record_cores(false);
  for (std::size_t i = 0; i < chip_.num_islands(); ++i) {
    // power::PowerModel::island_leak_mult of the island's own chip.
    const std::vector<double>& mults = chips[i / islands_]->island_leak_mults;
    const double lm = mults.empty() ? 1.0 : mults[i % islands_];
    const std::size_t g0 = chip_.island_offset(i);
    for (std::size_t c = 0; c < chip_.island_size(i); ++c) {
      core_leak_mult_[g0 + c] = lm;
    }
  }
}

void ChipPlant::step(double dt, std::span<double> core_leak_w) {
  chip_.step(dt);
  const sim::ChipSoa& soa = chip_.soa();
  // One flat power sweep over every core of the batch (voltage / frequency
  // / leak multiplier are per-core SoA columns), at the temperatures before
  // this tick's RC step; island and chip totals are partial sums over the
  // same buffer.
  power_->chip_power_batch(soa.utilization, soa.demand_activity,
                           soa.activity_idle, soa.ceff_scale, soa.voltage,
                           soa.freq_ghz, core_leak_mult_,
                           thermal_.temperatures(), chip_.core_power_w(),
                           core_leak_w);
  const std::span<const double> core_power = chip_.core_power_w();
  for (std::size_t k = 0; k < chip_power_w_.size(); ++k) {
    double chip_power = 0.0;
    for (std::size_t i = k * islands_; i < (k + 1) * islands_; ++i) {
      const std::size_t g0 = chip_.island_offset(i);
      const std::size_t sz = chip_.island_size(i);
      double island_power = 0.0;
      for (std::size_t c = 0; c < sz; ++c) island_power += core_power[g0 + c];
      island_power_w_[i] = island_power;
      chip_power += island_power;
    }
    chip_power_w_[k] = chip_power;
  }
  thermal_.step(core_power, dt);
}

namespace {

/// One chip's side of a lockstep calibration: its phase lengths, its
/// excitation stream and the samples it collects.
struct CalibrationState {
  struct Accum {
    double utilization = 0.0, power_w = 0.0;
    std::size_t ticks = 0;
  };
  std::size_t total_ticks = 0;
  std::size_t phase_a_ticks = 0;
  util::Xoshiro256pp rng{0};
  std::vector<std::vector<double>> utils, powers_ref, powers_raw, freqs;
  std::vector<Accum> accum;
  double peak_chip_power = 0.0;
  std::vector<double> island_peak;
  std::vector<util::RunningMean> island_fmax_bips, island_fmax_leak;
};

/// Calibrates `configs`, which must be same_plant, in lockstep through one
/// plant: the body of calibrate_chips for one batch.
void calibrate_lockstep(std::span<const SimulationConfig* const> configs,
                        std::span<ChipCalibration> out) {
  const SimulationConfig& first = *configs.front();
  CPM_TRACE_SCOPE1("sim", "Simulation::calibrate", "chips", configs.size());
  const auto& cmp = first.cmp;
  const power::PowerModel power(cmp, first.island_leak_mults);
  ChipPlant plant(configs, power);
  sim::Chip& chip = plant.chip();
  const std::vector<double> level_scale = level_scales(cmp.dvfs);
  const std::size_t n = cmp.num_islands;
  const double dt = cmp.tick_seconds();

  std::vector<CalibrationState> states(configs.size());
  std::size_t batch_ticks = 0;
  std::size_t batch_phase_a_ticks = 0;
  for (std::size_t k = 0; k < configs.size(); ++k) {
    CalibrationState& st = states[k];
    st.total_ticks = std::max<std::size_t>(
        cmp.ticks_per_pic_interval * 16,
        static_cast<std::size_t>(configs[k]->calibration_seconds / dt));
    // Phase A (first half): all islands held at fmax -- measures the
    // chip's unmanaged peak power, which defines the budget percentage
    // scale ("max chip power"). Phase B (second half): white-noise DVFS
    // excitation for transducer fitting and plant-gain identification
    // (Fig. 5 methodology).
    st.phase_a_ticks = st.total_ticks / 2;
    st.rng = util::Xoshiro256pp(configs[k]->seed ^ 0xCA11B7A7E5EEDULL);
    st.utils.resize(n);
    st.powers_ref.resize(n);
    st.powers_raw.resize(n);
    st.freqs.resize(n);
    st.accum.resize(n);
    st.island_peak.assign(n, 0.0);
    st.island_fmax_bips.resize(n);
    st.island_fmax_leak.resize(n);
    batch_ticks = std::max(batch_ticks, st.total_ticks);
    batch_phase_a_ticks = std::max(batch_phase_a_ticks, st.phase_a_ticks);
  }
  std::vector<double> core_leak(chip.num_cores(), 0.0);
  const sim::ReductionSoa& reductions = chip.reductions();
  const std::span<const double> island_power = plant.island_power_w();

  // A chip whose calibration is shorter than the batch's keeps stepping
  // with the others and records nothing more.
  for (std::size_t t = 0; t < batch_ticks; ++t) {
    plant.step(dt, t < batch_phase_a_ticks ? std::span<double>(core_leak)
                                           : std::span<double>());
    for (std::size_t k = 0; k < states.size(); ++k) {
      CalibrationState& st = states[k];
      if (t >= st.total_ticks) continue;
      const bool phase_a = t < st.phase_a_ticks;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = k * n + i;
        st.accum[i].utilization += reductions.island_utilization[j];
        st.accum[i].power_w += island_power[j];
        ++st.accum[i].ticks;
        if (phase_a) {
          st.island_peak[i] = std::max(st.island_peak[i], island_power[j]);
          st.island_fmax_bips[i].add(reductions.island_bips[j]);
          double leakage = 0.0;
          for (std::size_t g = chip.island_offset(j);
               g < chip.island_offset(j + 1); ++g) {
            leakage += core_leak[g];
          }
          st.island_fmax_leak[i].add(leakage);
        }
      }
      if (phase_a) {
        st.peak_chip_power =
            std::max(st.peak_chip_power, plant.chip_power_w()[k]);
      }

      if ((t + 1) % cmp.ticks_per_pic_interval == 0) {
        for (std::size_t i = 0; i < n; ++i) {
          sim::DvfsActuator& actuator = chip.actuator(k * n + i);
          CalibrationState::Accum& acc = st.accum[i];
          const double ticks = static_cast<double>(acc.ticks);
          const double mean_util = acc.utilization / ticks;
          const double mean_power = acc.power_w / ticks;
          st.utils[i].push_back(mean_util);
          // Normalize power samples to the reference (top) level so a
          // single linear u->P line covers the whole DVFS range.
          st.powers_ref[i].push_back(mean_power /
                                     level_scale[actuator.current_level()]);
          st.powers_raw[i].push_back(mean_power);
          st.freqs[i].push_back(actuator.operating_point().freq_ghz);
          acc = CalibrationState::Accum{};
          if (!phase_a) {
            // White-noise DVFS excitation (paper Fig. 5 methodology): jump
            // to a uniformly random level each local interval.
            actuator.set_level(st.rng.uniform_int(cmp.dvfs.num_levels()));
          }
        }
      }
    }
  }

  for (std::size_t k = 0; k < states.size(); ++k) {
    CalibrationState& st = states[k];
    util::MetricsRegistry::global().add("chip.ticks", st.total_ticks);
    const double max_power_w = st.peak_chip_power;
    CalibrationResult& cal = out[k].calibration;
    out[k].max_chip_power = units::Watts{max_power_w};
    cal.island_peak_power_w = st.island_peak;
    for (std::size_t i = 0; i < n; ++i) {
      cal.island_fmax_bips.push_back(st.island_fmax_bips[i].mean());
      cal.island_fmax_leakage_w.push_back(st.island_fmax_leak[i].mean());
    }
    for (std::size_t i = 0; i < n; ++i) {
      cal.transducers.push_back(
          power::calibrate_transducer(st.utils[i], st.powers_ref[i]));
      // Plant gain a_i: delta (power, % of chip max) per delta (freq,
      // GHz), from phase-B samples where frequency actually moved.
      std::vector<double> df, dp_pct;
      const std::vector<double>& freqs = st.freqs[i];
      const std::vector<double>& powers = st.powers_raw[i];
      for (std::size_t s = 1; s < freqs.size(); ++s) {
        if (freqs[s] == freqs[s - 1]) continue;
        df.push_back(freqs[s] - freqs[s - 1]);
        dp_pct.push_back((powers[s] - powers[s - 1]) / max_power_w * 100.0);
      }
      const control::GainEstimate est =
          control::estimate_plant_gain(df, dp_pct);
      cal.plant_gains.push_back(std::max(0.05, est.gain.value()));
      cal.plant_gain_r2.push_back(est.r_squared);
      util::log_info() << "calibration island " << i << ": transducer k1="
                       << cal.transducers[i].k1
                       << " k0=" << cal.transducers[i].k0
                       << " R2=" << cal.transducers[i].r_squared
                       << " plant a=" << cal.plant_gains[i];
    }
  }
}

}  // namespace

std::vector<ChipCalibration> calibrate_chips(
    std::span<const SimulationConfig> configs) {
  for (const SimulationConfig& config : configs) validate_config(config);
  std::vector<ChipCalibration> out(configs.size());
  std::vector<const SimulationConfig*> batch;
  for (std::size_t begin = 0; begin < configs.size();) {
    std::size_t end = begin + 1;
    while (end < configs.size() && same_plant(configs[end], configs[begin])) {
      ++end;
    }
    batch.clear();
    for (std::size_t c = begin; c < end; ++c) batch.push_back(&configs[c]);
    calibrate_lockstep(batch, std::span(out).subspan(begin, end - begin));
    begin = end;
  }
  return out;
}

SimulationResult Simulation::run(double duration_s) {
  auto live = start();
  live->advance(duration_s);
  return live->finish();
}

SimulationResult Simulation::run(double duration_s, RecordSink& sink) {
  auto live = start(sink);
  live->advance(duration_s);
  return live->finish();
}

std::unique_ptr<SimulationRun> Simulation::start() {
  return std::unique_ptr<SimulationRun>(
      new SimulationRun(*this, nullptr, nullptr, nullptr, 0));
}

std::unique_ptr<SimulationRun> Simulation::start(RecordSink& sink) {
  return std::unique_ptr<SimulationRun>(
      new SimulationRun(*this, &sink, nullptr, nullptr, 0));
}

// ---------------------------------------------------------------------------
// SimulationRun
// ---------------------------------------------------------------------------

SimulationRun::~SimulationRun() = default;

SimulationRun::SimulationRun(Simulation& owner, RecordSink* sink,
                             ChipPlant* plant, TickLedger* ledger,
                             std::size_t slot)
    : owner_(&owner),
      owned_plant_(plant ? nullptr
                         : std::make_unique<ChipPlant>(owner.config_,
                                                       owner.power_model_)),
      owned_ledger_(plant ? nullptr
                          : std::make_unique<TickLedger>(
                                *owned_plant_,
                                std::span(&owner.config_.hotspot_threshold_c,
                                          1),
                                owner.config_.cmp.ticks_per_pic_interval,
                                owner.config_.cmp.pic_invocations_per_gpm())),
      plant_(plant ? plant : owned_plant_.get()),
      ledger_(plant ? ledger : owned_ledger_.get()),
      slot_(slot),
      island0_(slot * owner.config_.cmp.num_islands),
      core0_(slot * owner.config_.cmp.total_cores()),
      sensor_rng_(owner.config_.seed ^ 0x5E4504ULL),
      migration_advisor_(owner.config_.migration),
      dt_(owner.config_.cmp.tick_seconds()),
      n_(owner.config_.cmp.num_islands),
      ticks_per_pic_(owner.config_.cmp.ticks_per_pic_interval),
      pics_per_gpm_(owner.config_.cmp.pic_invocations_per_gpm()),
      fmax_(owner.config_.cmp.dvfs.max_freq().value()),
      live_budget_w_(owner.budget_w_),
      owned_sink_(sink ? nullptr : std::make_unique<InMemorySink>()),
      sink_(sink ? sink : owned_sink_.get()) {
  const SimulationConfig& config = owner.config_;
  const auto& cmp = config.cmp;
  const CalibrationResult& calibration = owner.calibration_;

  // ---- build the manager -------------------------------------------------
  if (config.manager == ManagerKind::kCpm) {
    PerfPolicyConfig perf_cfg = config.perf_policy;
    perf_cfg.dvfs = cmp.dvfs;  // demand ceilings use the chip's real table
    std::unique_ptr<ProvisioningPolicy> policy;
    switch (config.policy) {
      case PolicyKind::kPerformance:
        policy = std::make_unique<PerformanceAwarePolicy>(perf_cfg);
        break;
      case PolicyKind::kThermal: {
        policy = std::make_unique<ThermalAwarePolicy>(
            std::make_unique<PerformanceAwarePolicy>(perf_cfg),
            resolved_thermal_constraints(config), n_);
        break;
      }
      case PolicyKind::kVariation: {
        VariationPolicyConfig vcfg = config.variation_policy;
        vcfg.dvfs = cmp.dvfs;
        policy = std::make_unique<VariationAwarePolicy>(vcfg);
        break;
      }
      case PolicyKind::kQos: {
        QosPolicyConfig qcfg = config.qos_policy;
        qcfg.perf = perf_cfg;
        policy = std::make_unique<QosAwarePolicy>(qcfg);
        break;
      }
      case PolicyKind::kEnergy: {
        EnergyPolicyConfig ecfg = config.energy_policy;
        ecfg.perf = perf_cfg;
        if (ecfg.reference_bips <= 0.0) {
          for (const double bips : calibration.island_fmax_bips) {
            ecfg.reference_bips += bips;
          }
        }
        policy = std::make_unique<EnergyAwarePolicy>(ecfg);
        break;
      }
    }
    gpm_ = std::make_unique<Gpm>(std::move(policy),
                                 units::Watts{live_budget_w_}, n_);
    for (std::size_t i = 0; i < n_; ++i) {
      PicConfig pc;
      pc.gains = config.pid_gains;
      pc.plant_gain = calibration.plant_gains[i];
      pc.min_freq_ghz = cmp.dvfs.min_freq().value();
      pc.max_freq_ghz = cmp.dvfs.max_freq().value();
      pc.power_scale_w = owner.max_power_w_;
      pc.max_step_ghz = config.pic_max_step_ghz;
      pc.deadband_pct = config.pic_deadband_pct;
      pc.observer_gain = config.pic_observer_gain;
      // Start each island at the level whose dynamic-power scale roughly
      // matches its (equal) share of the budget, so the run does not open
      // with a chip-wide overshoot while the PICs pull power down from fmax.
      std::size_t init_level = cmp.dvfs.max_level();
      while (init_level > 0 &&
             owner.level_scale(init_level) > config.budget_fraction) {
        --init_level;
      }
      actuator(i).set_level(init_level);
      actuator(i).consume_stall(1.0);  // no startup stall
      pics_.emplace_back(pc, calibration.transducers[i],
                         units::GigaHertz{cmp.dvfs.level(init_level).freq_ghz});
      pics_.back().set_target(
          units::Watts{live_budget_w_ / static_cast<double>(n_)});
      // Migration invalidates the per-island transducer calibration (the
      // island's thread mix changes), so online recalibration is mandatory
      // whenever migration is enabled.
      if (config.adaptive_transducer || config.enable_migration) {
        adaptive_.emplace_back(calibration.transducers[i]);
      }
    }
  } else if (config.manager == ManagerKind::kMaxBips) {
    MaxBipsConfig mc;
    mc.dvfs = cmp.dvfs;
    maxbips_ =
        std::make_unique<MaxBipsManager>(mc, units::Watts{live_budget_w_});
  }

  // MaxBIPS's static prediction table: each island characterized once, at
  // fmax, by its calibration-time peak power and mean BIPS.
  maxbips_static_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    maxbips_static_[i].bips = calibration.island_fmax_bips[i];
    maxbips_static_[i].power_w = calibration.island_peak_power_w[i];
    maxbips_static_[i].leakage_w = calibration.island_fmax_leakage_w[i];
    maxbips_static_[i].dvfs_level = cmp.dvfs.max_level();
  }

  // ---- result / accumulator setup -----------------------------------------
  result_.max_chip_power_w = owner.max_power_w_;
  result_.budget_w = owner.budget_w_;
  result_.calibration = calibration;
  result_.island_level_residency.assign(
      n_, std::vector<double>(cmp.dvfs.num_levels(), 0.0));
  gpm_sensed_energy_.assign(n_, 0.0);
  gpm_obs_.resize(n_);
  core_util_sum_.assign(cmp.total_cores(), 0.0);
}

double SimulationRun::elapsed_s() const noexcept {
  return static_cast<double>(ledger_->ticks()) * dt_;
}

double SimulationRun::instructions() const {
  if (finished_) {
    throw std::logic_error("SimulationRun: observables invalid after finish()");
  }
  return ledger_->instructions[slot_];
}

units::Watts SimulationRun::last_window_power() const {
  if (finished_) {
    throw std::logic_error("SimulationRun: observables invalid after finish()");
  }
  return units::Watts{last_gpm_power_w_};
}

double SimulationRun::last_window_bips() const {
  if (finished_) {
    throw std::logic_error("SimulationRun: observables invalid after finish()");
  }
  return last_gpm_bips_;
}

void SimulationRun::set_budget(units::Watts budget) {
  const double watts = budget.value();
  if (!(watts > 0.0) || !std::isfinite(watts)) {
    throw std::invalid_argument("SimulationRun: budget must be positive");
  }
  pending_budget_w_ = watts;
}

std::uint64_t SimulationRun::take_ticks(double seconds) {
  if (finished_) {
    throw std::logic_error("SimulationRun::advance: run already finished");
  }
  if (!(seconds > 0.0) || !std::isfinite(seconds)) {
    throw std::invalid_argument("SimulationRun::advance: duration must be positive");
  }
  // Round to whole ticks but carry the fractional remainder to the next
  // call: each invocation alone rounding `seconds / dt_` would silently lose
  // (or double-count) time under repeated sub-interval stepping.
  const double frac_ticks = seconds / dt_ + tick_carry_;
  // The rounded tick count below is cast to std::uint64_t.
  if (!(frac_ticks + 0.5 <
        static_cast<double>(std::numeric_limits<std::uint64_t>::max()))) {
    throw std::invalid_argument(
        "SimulationRun::advance: duration exceeds the representable tick "
        "count");
  }
  const std::uint64_t ticks =
      frac_ticks <= 0.0 ? 0 : static_cast<std::uint64_t>(frac_ticks + 0.5);
  tick_carry_ = frac_ticks - static_cast<double>(ticks);
  return ticks;
}

void SimulationRun::advance(double seconds) {
  if (plant_->num_chips() != 1) {
    throw std::logic_error(
        "SimulationRun::advance: a batched run advances through its RunBatch");
  }
  SimulationRun* const self = this;
  advance_lockstep(*plant_, *ledger_, std::span(&self, 1), seconds);
}

void SimulationRun::advance_lockstep(ChipPlant& plant, TickLedger& ledger,
                                     std::span<SimulationRun* const> runs,
                                     double seconds) {
  // Every run of a batch has advanced by the same amounts with the same
  // tick, so they owe the same tick count; a run that cannot advance stops
  // the batch before any of them moves.
  for (SimulationRun* run : runs) {
    if (run->finished_) {
      throw std::logic_error("SimulationRun::advance: run already finished");
    }
  }
  std::uint64_t ticks = 0;
  bool migrating = false;
  for (SimulationRun* run : runs) {
    ticks = run->take_ticks(seconds);
    migrating = migrating || run->owner_->config_.enable_migration;
  }
  CPM_TRACE_SCOPE1("sim", "SimulationRun::advance", "seconds", seconds);
  const double dt = runs.front()->dt_;
  for (std::uint64_t t = 0; t < ticks; ++t) {
    plant.step(dt);
    const TickLedger::Closes closes = ledger.advance(plant, dt);
    if (migrating) {
      for (SimulationRun* run : runs) {
        if (run->owner_->config_.enable_migration) {
          run->sample_core_utilization();
        }
      }
    }
    if (closes == TickLedger::Closes::kNothing) continue;
    const double now = static_cast<double>(ledger.ticks()) * dt;
    for (SimulationRun* run : runs) {
      run->pic_boundary(now);
      if (closes == TickLedger::Closes::kGpmWindow) run->gpm_boundary(now);
    }
  }
}

void SimulationRun::sample_core_utilization() {
  // Frequency-normalized utilization (u_ref = u f / (u f + fmax (1-u)))
  // makes cores on islands at different frequencies comparable for the
  // migration advisor.
  const sim::Chip& chip = plant_->chip();
  const sim::ChipSoa& soa = chip.soa();
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t g0 = chip.island_offset(island0_ + i);
    const double f = soa.freq_ghz[g0];
    for (std::size_t c = 0; c < chip.island_size(island0_ + i); ++c) {
      const double u = soa.utilization[g0 + c];
      const double denom = u * f + fmax_ * (1.0 - u);
      core_util_sum_[g0 - core0_ + c] += denom > 0.0 ? u * f / denom : 0.0;
    }
  }
  ++core_util_ticks_;
}

void SimulationRun::pic_boundary(double now) {
  CPM_TRACE_SCOPE1("sim", "SimulationRun::pic_boundary", "time_s", now);
  const SimulationConfig& config = owner_->config_;
  const auto& cmp = config.cmp;
  const IslandSums& pic = ledger_->pic;
  const double ticks = static_cast<double>(ticks_per_pic_);
  for (std::size_t i = 0; i < n_; ++i) {
    CPM_TRACE_SCOPE1("pic", "pic.update", "island", i);
    const std::size_t j = island0_ + i;
    double u = pic.utilization[j] / ticks;
    if (config.sensor_noise_sigma > 0.0) {
      u = std::clamp(
          u * (1.0 + config.sensor_noise_sigma * sensor_rng_.normal()), 0.0,
          1.0);
    }
    PicIntervalRecord rec;
    rec.time_s = now;
    rec.island = i;
    rec.actual_w = pic.power_w[j] / ticks;
    rec.utilization = u;
    rec.bips = pic.bips[j] / ticks;
    rec.freq_ghz = actuator(i).operating_point().freq_ghz;
    rec.dvfs_level = actuator(i).current_level();

    if (config.manager == ManagerKind::kCpm) {
      const double scale = owner_->level_scale(rec.dvfs_level);
      if (!adaptive_.empty()) {
        // Online observations are normalized to the reference level, like
        // the offline calibration samples.
        adaptive_[i].observe(u, units::Watts{rec.actual_w / scale});
        pics_[i].set_transducer(adaptive_[i].model());
      }
      rec.target_w = pics_[i].target().value();
      rec.sensed_w = pics_[i].sensed_power(u, scale).value();
      gpm_sensed_energy_[i] += rec.sensed_w * cmp.pic_interval_s;
      const units::GigaHertz freq_req = pics_[i].invoke(u, scale);
      pic_abs_error_stats_.add(units::abs(pics_[i].last_error()).value());
      actuator(i).request_frequency(freq_req);
    } else {
      rec.target_w = live_budget_w_ / static_cast<double>(n_);
      rec.sensed_w = rec.actual_w;
      gpm_sensed_energy_[i] += rec.sensed_w * cmp.pic_interval_s;
    }
    sink_->record_pic(rec);
    result_.island_level_residency[i][rec.dvfs_level] += 1.0;
  }
}

void SimulationRun::gpm_boundary(double now) {
  CPM_TRACE_SCOPE2("gpm", "SimulationRun::gpm_boundary", "time_s", now,
                   "budget_w", live_budget_w_);
  const SimulationConfig& config = owner_->config_;
  const auto& cmp = config.cmp;

  // Budget updates: a supervisor override (set_budget) may be pending;
  // the configured schedule is processed after it and therefore takes
  // precedence when both land on the same boundary (the schedule is part of
  // the experiment's definition; the override is advisory).
  while (schedule_cursor_ < config.budget_schedule.size() &&
         config.budget_schedule[schedule_cursor_].first <= now) {
    pending_budget_w_ = config.budget_schedule[schedule_cursor_].second *
                        owner_->max_power_w_;
    ++schedule_cursor_;
  }
  if (pending_budget_w_ > 0.0) {
    live_budget_w_ = pending_budget_w_;
    pending_budget_w_ = -1.0;
    if (gpm_) gpm_->set_budget(units::Watts{live_budget_w_});
    if (maxbips_) maxbips_->set_budget(units::Watts{live_budget_w_});
  }

  // The observation and record buffers are the run's own, sized once: a
  // window only overwrites them (the sink copies what it retains).
  std::vector<IslandObservation>& obs = gpm_obs_;
  GpmIntervalRecord& rec = gpm_rec_;
  rec.time_s = now;
  rec.chip_budget_w = live_budget_w_;
  rec.max_temp_c = plant_->thermal().max_temperature(slot_);
  rec.chip_actual_w = 0.0;
  rec.chip_bips = 0.0;
  rec.island_actual_w.resize(n_);
  rec.island_bips.resize(n_);
  const IslandSums& gpm = ledger_->gpm;
  const double ticks = static_cast<double>(ticks_per_pic_ * pics_per_gpm_);
  double observed_w = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = island0_ + i;
    const double mean_power = gpm.power_w[j] / ticks;
    obs[i].bips = gpm.bips[j] / ticks;
    obs[i].utilization = gpm.utilization[j] / ticks;
    obs[i].instructions = gpm.instructions[j];
    obs[i].energy_j = gpm_sensed_energy_[i];
    obs[i].power_w = gpm_sensed_energy_[i] / cmp.gpm_interval_s;
    observed_w += obs[i].power_w;
    obs[i].dvfs_level = actuator(i).current_level();

    rec.island_actual_w[i] = mean_power;
    rec.island_bips[i] = obs[i].bips;
    rec.chip_actual_w += mean_power;
    rec.chip_bips += obs[i].bips;
    gpm_sensed_energy_[i] = 0.0;
  }

  if (config.manager == ManagerKind::kCpm) {
    gpm_observed_power_stats_.add(observed_w);
    const std::vector<double>& alloc = gpm_->invoke(obs);
    for (std::size_t i = 0; i < n_; ++i) {
      pics_[i].set_target(units::Watts{alloc[i]});
    }
    rec.island_alloc_w = alloc;
  } else if (config.manager == ManagerKind::kMaxBips) {
    const std::vector<std::size_t>& levels = maxbips_->choose_levels(
        config.maxbips_dynamic ? std::span<const IslandObservation>(obs)
                               : std::span<const IslandObservation>(
                                     maxbips_static_));
    for (std::size_t i = 0; i < n_; ++i) {
      actuator(i).set_level(levels[i]);
    }
    rec.island_alloc_w.assign(n_, live_budget_w_ / static_cast<double>(n_));
  } else {
    rec.island_alloc_w.assign(n_, live_budget_w_ / static_cast<double>(n_));
  }
  last_gpm_power_w_ = rec.chip_actual_w;
  last_gpm_bips_ = rec.chip_bips;
  CPM_TRACE_COUNTER("chip_power_w", "actual", rec.chip_actual_w);
  CPM_TRACE_COUNTER("chip_bips", "bips", rec.chip_bips);
  sink_->record_gpm(rec);

  // ---- migration advisor (extension) ----
  if (config.enable_migration && core_util_ticks_ > 0) {
    std::vector<double> means(core_util_sum_.size());
    for (std::size_t c = 0; c < means.size(); ++c) {
      means[c] = core_util_sum_[c] / static_cast<double>(core_util_ticks_);
      core_util_sum_[c] = 0.0;
    }
    core_util_ticks_ = 0;
    if (migration_cooldown_ > 0) {
      --migration_cooldown_;
    } else {
      const auto proposal =
          migration_advisor_.propose(means, n_, cmp.cores_per_island);
      if (proposal) {
        plant_->chip().migrate(island0_ + proposal->island_a,
                               proposal->core_a, island0_ + proposal->island_b,
                               proposal->core_b,
                               config.migration.migration_stall_s);
        ++result_.migrations;
        migration_cooldown_ = config.migration.cooldown_windows;
        // The moved threads invalidate both islands' utilization->power
        // models: restart their online calibration from scratch (low prior
        // weight -> fast relearning).
        if (!adaptive_.empty()) {
          adaptive_[proposal->island_a] = power::AdaptiveTransducer(
              owner_->calibration_.transducers[proposal->island_a]);
          adaptive_[proposal->island_b] = power::AdaptiveTransducer(
              owner_->calibration_.transducers[proposal->island_b]);
        }
      }
    }
  }
}

SimulationResult SimulationRun::finish() {
  if (finished_) {
    throw std::logic_error("SimulationRun::finish: already finished");
  }
  finished_ = true;
  result_.duration_s = elapsed_s();
  for (auto& residency : result_.island_level_residency) {
    double total = 0.0;
    for (const double r : residency) total += r;
    if (total > 0.0) {
      for (double& r : residency) r /= total;
    }
  }
  const TickLedger& ledger = *ledger_;
  result_.total_instructions = ledger.instructions[slot_];
  result_.avg_chip_power_w = ledger.mean_power_w[slot_];
  result_.avg_chip_bips = ledger.mean_bips[slot_];
  result_.hotspot_fraction =
      ledger.observed_s > 0.0 ? ledger.hot_s[slot_] / ledger.observed_s : 0.0;
  const auto islands = [this](const std::vector<double>& column) {
    return std::vector<double>(
        column.begin() + static_cast<std::ptrdiff_t>(island0_),
        column.begin() + static_cast<std::ptrdiff_t>(island0_ + n_));
  };
  result_.island_instructions = islands(ledger.island_instructions);
  result_.island_energy_j = islands(ledger.island_energy_j);
  result_.island_avg_bips = islands(ledger.island_bips);
  for (std::size_t i = 0; i < n_; ++i) {
    result_.island_avg_bips[i] /=
        static_cast<double>(std::max<std::uint64_t>(1, ledger.ticks()));
    result_.dvfs_transitions += static_cast<double>(
        actuator(i).transition_count());
  }
  util::MetricsRegistry& registry = util::MetricsRegistry::global();
  registry.add("chip.ticks", ledger.ticks());
  registry.add("pic.invocations", pic_abs_error_stats_.count());
  registry.add("gpm.invocations", gpm_observed_power_stats_.count());
  if (maxbips_) registry.add("maxbips.solves", maxbips_->solves());
  registry.merge("pic.abs_error_pct", pic_abs_error_stats_);
  registry.merge("gpm.observed_power_w", gpm_observed_power_stats_);
  sink_->finish(result_);
  return std::move(result_);
}

// ---------------------------------------------------------------------------
// RunBatch
// ---------------------------------------------------------------------------

RunBatch::RunBatch(std::span<Simulation* const> sims,
                   std::span<RecordSink* const> sinks) {
  if (sims.empty() || sims.size() != sinks.size()) {
    throw std::invalid_argument(
        "RunBatch: needs one sink per simulation, and at least one");
  }
  std::vector<const SimulationConfig*> configs;
  configs.reserve(sims.size());
  for (const Simulation* sim : sims) configs.push_back(&sim->config_);
  plant_ = std::make_unique<ChipPlant>(configs, sims.front()->power_model_);
  std::vector<double> thresholds;
  thresholds.reserve(sims.size());
  for (const Simulation* sim : sims) {
    thresholds.push_back(sim->config_.hotspot_threshold_c);
  }
  const sim::CmpConfig& cmp = sims.front()->config_.cmp;
  ledger_ = std::make_unique<TickLedger>(*plant_, thresholds,
                                         cmp.ticks_per_pic_interval,
                                         cmp.pic_invocations_per_gpm());
  runs_.reserve(sims.size());
  handles_.reserve(sims.size());
  for (std::size_t k = 0; k < sims.size(); ++k) {
    runs_.push_back(std::unique_ptr<SimulationRun>(new SimulationRun(
        *sims[k], sinks[k], plant_.get(), ledger_.get(), k)));
    handles_.push_back(runs_.back().get());
  }
}

void RunBatch::advance(double seconds) {
  SimulationRun::advance_lockstep(*plant_, *ledger_, handles_, seconds);
}

}  // namespace cpm::core
