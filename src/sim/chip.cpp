#include "sim/chip.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "util/rng.h"

namespace cpm::sim {

namespace {

// Pass 2 of the tick: the core micro-model over the flat SoA arrays.
// Bit-exactness contract with CoreModel::step, which the test tree's
// reference chip steps: identical operations in identical order,
// element-wise only (each chip's congestion term `cong_term` and the
// instruction scale are hoisted as the *same* scalar expressions, no sum is
// reassociated, and both paths multiply by the island's reciprocal
// frequency rather than dividing), so either ISA's wrapper and the
// reference produce identical doubles. The reciprocal-frequency and
// compute*`1/t` forms keep this loop at one division per core -- divides
// are the only non-pipelining operation here. The ten arrays are distinct
// ChipSoa columns; __restrict says so, which spares GCC the run-time alias
// checks that otherwise stop it vectorizing the loop.
CPM_ALWAYS_INLINE void micro_model_body(
    std::size_t cores, const double* __restrict cong_term, double instr_scale,
    const double* __restrict cpi, const double* __restrict mem,
    const double* __restrict dbw, const double* __restrict invf,
    const double* __restrict run, double* __restrict instr,
    double* __restrict bips, double* __restrict util,
    double* __restrict bw) noexcept {
  // vectorize: sim.micro_model
  for (std::size_t g = 0; g < cores; ++g) {
    const double compute_ns = cpi[g] * invf[g];
    const double mem_ns = mem[g] * cong_term[g];
    const double t_instr_ns = compute_ns + mem_ns;
    // 1 ns/instruction == 1 BIPS, so BIPS while running is 1/t_instr_ns.
    const double bips_running = 1.0 / t_instr_ns;
    instr[g] = bips_running * instr_scale * run[g];
    bips[g] = bips_running * run[g];
    util[g] = compute_ns * bips_running * run[g];
    bw[g] = bips_running * dbw[g] * run[g];
  }
}

}  // namespace

namespace kernels {

void micro_model_sweep(util::Isa isa, std::size_t cores,
                       const double* cong_term, double instr_scale,
                       const double* cpi,
                       const double* mem, const double* dbw,
                       const double* invf, const double* run, double* instr,
                       double* bips, double* util, double* bw) noexcept {
  util::dispatch_kernel<&micro_model_body>(isa, cores, cong_term, instr_scale,
                                           cpi, mem, dbw, invf, run, instr,
                                           bips, util, bw);
}

}  // namespace kernels

void ChipSoa::resize(std::size_t cores) {
  demand_cpi.assign(cores, 0.0);
  demand_mem_ns.assign(cores, 0.0);
  demand_activity.assign(cores, 0.0);
  demand_bandwidth.assign(cores, 0.0);
  freq_ghz.assign(cores, 0.0);
  inv_freq.assign(cores, 0.0);
  voltage.assign(cores, 0.0);
  run_fraction.assign(cores, 1.0);
  stall_fraction.assign(cores, 0.0);
  congestion_term.assign(cores, 0.0);
  activity_idle.assign(cores, 0.0);
  ceff_scale.assign(cores, 1.0);
  instructions.assign(cores, 0.0);
  bips.assign(cores, 0.0);
  utilization.assign(cores, 0.0);
  bandwidth_demand.assign(cores, 0.0);
  power_w.assign(cores, 0.0);
}

Chip::Chip(const CmpConfig& config, const workload::Mix& mix,
           std::uint64_t seed)
    : Chip(config, std::array{ChipSpec{&mix, seed}}) {}

Chip::Chip(const CmpConfig& config, std::span<const ChipSpec> chips)
    : config_(config) {
  if (chips.empty()) throw std::invalid_argument("Chip: no chips");
  const std::size_t islands = config.num_islands;
  actuators_.reserve(chips.size() * islands);
  offsets_.reserve(chips.size() * islands + 1);
  offsets_.push_back(0);
  for (const ChipSpec& spec : chips) {
    const workload::Mix& mix = *spec.mix;
    if (mix.num_islands() != islands) {
      throw std::invalid_argument("Chip: mix island count != config");
    }
    // Island sizes may differ from config.cores_per_island (heterogeneous
    // islands), but the chip-wide core count must agree with the config the
    // power/thermal models were sized from.
    if (mix.total_cores() != config.total_cores()) {
      throw std::invalid_argument("Chip: mix cores/island != config");
    }
    util::Xoshiro256pp master(spec.seed);
    const std::size_t first_core = demand_.size();
    for (const auto& assignment : mix.islands) {
      if (assignment.empty()) {
        throw std::invalid_argument("Chip: mix island with zero cores");
      }
      for (const auto* profile : assignment) {
        // Distinct seed and phase offset per core so replicated benchmarks
        // (Mix-3) do not run in lockstep.
        const units::Milliseconds offset{
            1.7 * static_cast<double>(demand_.size() - first_core)};
        demand_.add(*profile, master(), offset);
      }
      actuators_.emplace_back(config_.dvfs, config_.dvfs.max_level(),
                              config_.dvfs_overhead_fraction,
                              config_.pic_interval_s);
      offsets_.push_back(demand_.size());
    }
    memory_.emplace_back(config.memory_bandwidth_capacity);
  }
  soa_.resize(demand_.size());
  broadcast_.resize(actuators_.size());
  reductions_.island_bips.assign(actuators_.size(), 0.0);
  reductions_.island_utilization.assign(actuators_.size(), 0.0);
  reductions_.island_instructions.assign(actuators_.size(), 0.0);
  reductions_.island_bandwidth.assign(actuators_.size(), 0.0);
  reductions_.chip_bips.assign(chips.size(), 0.0);
  reductions_.chip_instructions.assign(chips.size(), 0.0);
  ticks_.resize(chips.size());
  for (ChipTick& tick : ticks_) tick.islands.resize(islands);
  for (std::size_t g = 0; g < demand_.size(); ++g) sync_profile_constants(g);
  // The first tick runs at zero congestion, like every memory system's.
  for (std::size_t k = 0; k < memory_.size(); ++k) write_congestion_term(k);
}

void Chip::set_record_cores(bool record) {
  record_cores_ = record;
  for (ChipTick& tick : ticks_) {
    tick.islands.assign(record ? config_.num_islands : 0, IslandTick{});
  }
}

void Chip::write_congestion_term(std::size_t chip) {
  const std::size_t cores = config_.total_cores();
  const double term =
      1.0 + config_.contention_gamma * std::max(0.0, memory_[chip].congestion());
  std::fill_n(soa_.congestion_term.begin() +
                  static_cast<std::ptrdiff_t>(chip * cores),
              cores, term);
}

void Chip::sync_profile_constants(std::size_t g) {
  const workload::BenchmarkProfile& profile = demand_.profile(g);
  soa_.activity_idle[g] = profile.activity_idle;
  soa_.ceff_scale[g] = profile.ceff_scale;
}

void Chip::migrate(std::size_t island_a, std::size_t core_a,
                   std::size_t island_b, std::size_t core_b,
                   double stall_seconds) {
  const std::size_t n = num_islands();
  if (island_a >= n || island_b >= n) {
    throw std::invalid_argument("Chip::migrate: island out of range");
  }
  if (core_a >= island_size(island_a) || core_b >= island_size(island_b)) {
    throw std::invalid_argument("Chip::migrate: core out of range");
  }
  if (island_a == island_b) {
    throw std::invalid_argument("Chip::migrate: both cores on one island");
  }
  if (island_a / config_.num_islands != island_b / config_.num_islands) {
    throw std::invalid_argument("Chip::migrate: islands of different chips");
  }
  const std::size_t ga = offsets_[island_a] + core_a;
  const std::size_t gb = offsets_[island_b] + core_b;
  demand_.swap_rows(ga, gb);
  // The moved threads carry their workload profiles with them; refresh the
  // cached per-core constants the tick reads.
  sync_profile_constants(ga);
  sync_profile_constants(gb);
  if (stall_seconds > 0.0) {
    actuators_[island_a].add_stall(stall_seconds);
    actuators_[island_b].add_stall(stall_seconds);
  }
}

const ChipTick& Chip::step(double dt_seconds) {
  const std::size_t islands = config_.num_islands;
  const std::size_t cores = config_.total_cores();

  // ---- pass 1: workload demand (the bank's flat passes), then the
  // per-island operating-point broadcast.
  const util::Isa isa = util::host_isa();
  demand_.step(dt_seconds,
               {soa_.demand_cpi.data(), soa_.demand_mem_ns.data(),
                soa_.demand_activity.data(), soa_.demand_bandwidth.data()},
               isa);
  // An island's columns keep their values from tick to tick, so they are
  // rewritten only when what they derive from changed: the operating point
  // (and its 1/f) when the DVFS level did, the stall columns while a stall
  // is pending and on the tick after one drains. The level is tracked by
  // index, not by comparing doubles.
  for (std::size_t i = 0; i < actuators_.size(); ++i) {
    DvfsActuator& actuator = actuators_[i];
    IslandBroadcast& cached = broadcast_[i];
    const std::size_t g0 = offsets_[i];
    const std::size_t g1 = offsets_[i + 1];
    const std::size_t level = actuator.current_level();
    if (level != cached.level) {
      const DvfsPoint op = actuator.operating_point();
      const double inv_freq = 1.0 / op.freq_ghz;
      for (std::size_t g = g0; g < g1; ++g) {
        soa_.freq_ghz[g] = op.freq_ghz;
        soa_.inv_freq[g] = inv_freq;
        soa_.voltage[g] = op.voltage;
      }
      cached.level = level;
    }
    const bool stalled = actuator.pending_stall() != 0.0;
    if (stalled || cached.stalled) {
      // With no stall pending the fraction is +0.0 (what consume_stall(dt)
      // / dt would give), without the call or its division.
      const double stall_fraction =
          stalled ? actuator.consume_stall(dt_seconds) / dt_seconds : 0.0;
      const double clamped = std::clamp(stall_fraction, 0.0, 1.0);
      const double run_fraction = 1.0 - clamped;
      for (std::size_t g = g0; g < g1; ++g) {
        soa_.run_fraction[g] = run_fraction;
        soa_.stall_fraction[g] = clamped;
      }
      cached.stalled = stalled;
    }
  }

  // ---- pass 2 (flat, vectorized): the core micro-model, once over the
  // batch; each chip's congestion reaches its cores through congestion_term.
  kernels::micro_model_sweep(
      isa, soa_.demand_cpi.size(), soa_.congestion_term.data(),
      1e9 * dt_seconds, soa_.demand_cpi.data(), soa_.demand_mem_ns.data(),
      soa_.demand_bandwidth.data(), soa_.inv_freq.data(),
      soa_.run_fraction.data(), soa_.instructions.data(), soa_.bips.data(),
      soa_.utilization.data(), soa_.bandwidth_demand.data());

  // ---- pass 3: island sums in core order into the island columns, chip
  // totals in island order, and each chip's congestion for the next tick.
  const double* instr = soa_.instructions.data();
  const double* bips = soa_.bips.data();
  const double* util = soa_.utilization.data();
  const double* bw = soa_.bandwidth_demand.data();
  double* island_bips = reductions_.island_bips.data();
  double* island_util = reductions_.island_utilization.data();
  double* island_instr = reductions_.island_instructions.data();
  double* island_bw = reductions_.island_bandwidth.data();
  for (std::size_t k = 0; k < ticks_.size(); ++k) {
    // The sums run in locals: the columns may alias each other as far as
    // the compiler knows, so summing into them would store and reload every
    // partial sum.
    double total_bips = 0.0;
    double total_instr = 0.0;
    double total_demand = 0.0;
    double chip_util = 0.0;
    for (std::size_t j = k * islands; j < (k + 1) * islands; ++j) {
      const std::size_t g0 = offsets_[j];
      const std::size_t g1 = offsets_[j + 1];
      double isl_bips = 0.0;
      double isl_util = 0.0;
      double isl_instr = 0.0;
      double isl_bw = 0.0;
      for (std::size_t g = g0; g < g1; ++g) {
        isl_bips += bips[g];
        isl_util += util[g];
        isl_instr += instr[g];
        isl_bw += bw[g];
      }
      chip_util += isl_util;
      island_bips[j] = isl_bips;
      island_util[j] = isl_util / static_cast<double>(g1 - g0);
      island_instr[j] = isl_instr;
      island_bw[j] = isl_bw;
      total_bips += isl_bips;
      total_instr += isl_instr;
      total_demand += isl_bw;
    }
    reductions_.chip_bips[k] = total_bips;
    reductions_.chip_instructions[k] = total_instr;
    ChipTick& tick = ticks_[k];
    tick.total_bips = total_bips;
    tick.total_instructions = total_instr;
    tick.utilization = chip_util / static_cast<double>(cores);
    tick.congestion = memory_[k].congestion();
    memory_[k].update(total_demand);
    write_congestion_term(k);
  }
  if (record_cores_) fill_island_records();
  return ticks_.front();
}

void Chip::fill_island_records() {
  const std::size_t islands = config_.num_islands;
  for (std::size_t k = 0; k < ticks_.size(); ++k) {
    for (std::size_t i = 0; i < islands; ++i) {
      const std::size_t j = k * islands + i;
      const std::size_t g0 = offsets_[j];
      IslandTick& it = ticks_[k].islands[i];
      it.bips = reductions_.island_bips[j];
      it.utilization = reductions_.island_utilization[j];
      it.instructions = reductions_.island_instructions[j];
      it.bandwidth_demand = reductions_.island_bandwidth[j];
      it.cores.resize(offsets_[j + 1] - g0);
      for (std::size_t c = 0; c < it.cores.size(); ++c) {
        const std::size_t g = g0 + c;
        CoreTick& ct = it.cores[c];
        ct.instructions = soa_.instructions[g];
        ct.bips = soa_.bips[g];
        ct.utilization = soa_.utilization[g];
        ct.activity = soa_.demand_activity[g];
        ct.activity_idle = soa_.activity_idle[g];
        ct.ceff_scale = soa_.ceff_scale[g];
        ct.bandwidth_demand = soa_.bandwidth_demand[g];
        ct.stall_fraction = soa_.stall_fraction[g];
      }
    }
  }
}

}  // namespace cpm::sim
