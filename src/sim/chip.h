// The CMP: islands of cores behind one DVFS actuator each, plus the shared
// memory system, built from a CmpConfig and an application mix (Table III).
// Chip::step advances every core one tick and threads the shared-memory
// congestion coupling between them.
//
// Tick-state layout: the chip owns all per-core per-tick state as
// structure-of-arrays in island-major flat core order: the workload demand
// state in a workload::DemandBank, the rest in ChipSoa. Each core's state
// lives there once. A tick steps the bank and then runs the core
// micro-model as flat sweeps over those arrays, which GCC vectorizes (their
// loops carry `// vectorize:` tags the vectorize_guard test checks) and
// which run at the host's vector width (util/isa.h). The test tree's
// reference chip (tests/support/reference_chip.h) steps the same model
// object by object, one CoreModel per core under one DvfsActuator per
// island; the tests and the fuzz harness run it in lockstep with this chip
// and hold the two bit-identical. ChipTick / IslandTick are thin record
// views filled from the SoA arrays each tick.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/config.h"
#include "sim/core.h"
#include "sim/dvfs.h"
#include "sim/memory.h"
#include "util/isa.h"
#include "workload/demand_bank.h"
#include "workload/mixes.h"

namespace cpm::sim {

/// Contiguous per-core tick state, island-major (island i owns flat core
/// indices [island_offset(i), island_offset(i+1))). Inputs are refreshed by
/// the per-core workload pass, constants on construction/migration, outputs
/// by the flat micro-model kernel. `power_w` is written by the power-model
/// layer (core::ChipPlant) so power lives in the same flat layout;
/// per-core temperature stays contiguous inside thermal::RcThermalModel.
struct ChipSoa {
  // -- workload demand inputs (refreshed every tick) --
  std::vector<double> demand_cpi;
  std::vector<double> demand_mem_ns;
  std::vector<double> demand_activity;
  std::vector<double> demand_bandwidth;
  // -- per-core operating conditions (broadcast per island when they
  // change) --
  std::vector<double> freq_ghz;
  std::vector<double> inv_freq;        // 1/freq_ghz (one divide per island)
  std::vector<double> voltage;         // operating-point voltage (for power)
  std::vector<double> run_fraction;    // 1 - clamped DVFS stall fraction
  std::vector<double> stall_fraction;  // the clamped stall fraction itself
  // -- per-core profile constants (re-synced after thread migration) --
  std::vector<double> activity_idle;
  std::vector<double> ceff_scale;
  // -- micro-model kernel outputs --
  std::vector<double> instructions;
  std::vector<double> bips;
  std::vector<double> utilization;
  std::vector<double> bandwidth_demand;
  // -- power-model output (filled by the owning simulation layer) --
  std::vector<double> power_w;

  void resize(std::size_t cores);
};

namespace kernels {

/// Pass 2 of the tick, the core micro-model, over `cores` flat columns at
/// `isa` (both ISAs give the same bits). `cong_term` is
/// 1 + gamma * max(0, congestion) and `instr_scale` is 1e9 * dt, hoisted as
/// CoreModel::step computes them. The outputs must not overlap the inputs.
void micro_model_sweep(util::Isa isa, std::size_t cores, double cong_term,
                       double instr_scale, const double* cpi,
                       const double* mem, const double* dbw,
                       const double* invf, const double* run, double* instr,
                       double* bips, double* util, double* bw) noexcept;

}  // namespace kernels

/// Aggregated island observation for one tick.
struct IslandTick {
  double bips = 0.0;              // summed over cores
  double utilization = 0.0;       // mean over cores
  double instructions = 0.0;      // summed
  double bandwidth_demand = 0.0;  // summed
  std::vector<CoreTick> cores;    // per-core detail (power/thermal inputs)
};

/// Full-chip observation for one tick.
struct ChipTick {
  std::vector<IslandTick> islands;
  double total_bips = 0.0;
  double total_instructions = 0.0;
  /// Core-weighted mean utilization over the whole chip. (Unlike averaging
  /// the per-island means, this stays correct for heterogeneous island
  /// sizes.)
  double utilization = 0.0;
  double congestion = 0.0;  // congestion experienced by this tick
};

class Chip {
 public:
  /// Builds cores from `mix`; the mix topology must match `config`
  /// (same island count and total core count -- island sizes may differ
  /// from config.cores_per_island as long as the totals agree), or
  /// std::invalid_argument is thrown. All randomness derives from `seed`.
  Chip(const CmpConfig& config, const workload::Mix& mix, std::uint64_t seed);
  // Each actuator points at this chip's own DVFS table, so a copy or a move
  // would leave the new chip's actuators reading the old one's.
  Chip(const Chip&) = delete;
  Chip& operator=(const Chip&) = delete;

  /// Advances every core one tick. Returns a reference to an internal
  /// record that is overwritten by the next step() call; copy it to retain.
  const ChipTick& step(double dt_seconds);

  std::size_t num_islands() const noexcept { return actuators_.size(); }
  /// Island `idx`'s DVFS knob, shared by all its cores.
  DvfsActuator& actuator(std::size_t idx) noexcept { return actuators_[idx]; }
  const DvfsActuator& actuator(std::size_t idx) const noexcept {
    return actuators_[idx];
  }

  std::size_t num_cores() const noexcept { return offsets_.back(); }
  /// First flat core index of island `idx`; offsets_[num_islands()] is the
  /// total core count, so [offset(i), offset(i+1)) is island i's range.
  std::size_t island_offset(std::size_t idx) const noexcept {
    return offsets_[idx];
  }
  std::size_t island_size(std::size_t idx) const noexcept {
    return offsets_[idx + 1] - offsets_[idx];
  }
  /// The workload profile of the thread on flat core `g`.
  const workload::BenchmarkProfile& core_profile(std::size_t g) const noexcept {
    return demand_.profile(g);
  }

  /// The chip's flat per-core tick state (valid after the first step()).
  const ChipSoa& soa() const noexcept { return soa_; }
  /// Mutable view of the per-core power slot for the power-model layer.
  std::span<double> core_power_w() noexcept { return soa_.power_w; }

  /// When false, step() leaves IslandTick::cores empty (the SoA arrays carry
  /// the per-core detail) -- the hot-loop configuration. Default true for
  /// record-surface compatibility.
  void set_record_cores(bool record) noexcept { record_cores_ = record; }
  bool record_cores() const noexcept { return record_cores_; }

  const CmpConfig& config() const noexcept { return config_; }

  /// Migrates (swaps) the threads on two cores of different islands, with
  /// their workload state, and charges `stall_seconds` of pipeline drain +
  /// cache warmup to both islands. An island or core index out of range
  /// throws std::invalid_argument and leaves the chip unchanged.
  void migrate(std::size_t island_a, std::size_t core_a, std::size_t island_b,
               std::size_t core_b, double stall_seconds = 0.0);

 private:
  void sync_profile_constants(std::size_t g);

  CmpConfig config_;
  std::vector<DvfsActuator> actuators_;  // one per island
  MemorySystem memory_;
  bool record_cores_ = true;

  /// What an island's broadcast columns in soa_ were last written from (pass
  /// 1 of the tick). The initial values force a first write.
  struct IslandBroadcast {
    std::size_t level = static_cast<std::size_t>(-1);  // DVFS level index
    bool stalled = true;  // the stall columns may hold a nonzero stall
  };

  std::vector<std::size_t> offsets_;  // island -> first flat core index
  workload::DemandBank demand_;       // every core's workload state
  std::vector<IslandBroadcast> broadcast_;
  ChipSoa soa_;
  ChipTick tick_;  // reused across step() calls (no per-tick allocation)
};

}  // namespace cpm::sim
