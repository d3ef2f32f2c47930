// The CMP: islands + shared memory system, built from a CmpConfig and an
// application mix (Table III). Chip::step advances every core one tick and
// threads the shared-memory congestion coupling between them.
//
// Tick-state layout: the chip owns all per-core per-tick state as
// structure-of-arrays in island-major flat core order: the workload demand
// state in a workload::DemandBank, the rest in ChipSoa. The production tick
// path (TickKernel::kBatched) steps the bank and then runs the core
// micro-model as flat sweeps over those arrays, which GCC vectorizes (their
// loops carry `// vectorize:` tags the vectorize_guard test checks) and
// which run at the host's vector width (util/isa.h). The legacy
// object-walking loop (Chip -> Island::step -> CoreModel::step) is retained
// as TickKernel::kScalarReference, a test-only differential oracle that the
// fuzz harness holds bit-identical to the batched kernel. ChipTick /
// IslandTick are thin record views filled from the SoA arrays each tick.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/config.h"
#include "sim/island.h"
#include "sim/memory.h"
#include "util/isa.h"
#include "workload/demand_bank.h"
#include "workload/mixes.h"

namespace cpm::sim {

/// Which tick kernel Chip::step runs. kBatched is the production path;
/// kScalarReference preserves the original per-object loop purely so
/// differential tests (tests/fuzz/fuzz_sim --scenarios N runs every scenario
/// through both) can prove the batched kernel bit-honest.
enum class TickKernel { kBatched, kScalarReference };

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
  // -- per-core operating conditions (broadcast per island every tick) --
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

/// Pass 2 of the batched tick, the core micro-model, over `cores` flat
/// columns at `isa` (both ISAs give the same bits). `cong_term` is
/// 1 + gamma * max(0, congestion) and `instr_scale` is 1e9 * dt, hoisted as
/// CoreModel::step computes them. The outputs must not overlap the inputs.
void micro_model_sweep(util::Isa isa, std::size_t cores, double cong_term,
                       double instr_scale, const double* cpi,
                       const double* mem, const double* dbw,
                       const double* invf, const double* run, double* instr,
                       double* bips, double* util, double* bw) noexcept;

}  // namespace kernels

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
  Chip(const CmpConfig& config, const workload::Mix& mix, std::uint64_t seed,
       TickKernel kernel = TickKernel::kBatched);

  /// Advances every core one tick. Returns a reference to an internal
  /// record that is overwritten by the next step() call; copy it to retain.
  const ChipTick& step(double dt_seconds);

  std::size_t num_islands() const noexcept { return islands_.size(); }
  Island& island(std::size_t idx) noexcept { return islands_[idx]; }
  const Island& island(std::size_t idx) const noexcept { return islands_[idx]; }

  std::size_t num_cores() const noexcept { return offsets_.back(); }
  /// First flat core index of island `idx`; offsets_[num_islands()] is the
  /// total core count, so [offset(i), offset(i+1)) is island i's range.
  std::size_t island_offset(std::size_t idx) const noexcept {
    return offsets_[idx];
  }
  std::size_t island_size(std::size_t idx) const noexcept {
    return offsets_[idx + 1] - offsets_[idx];
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
  TickKernel kernel() const noexcept { return kernel_; }

  const CmpConfig& config() const noexcept { return config_; }
  const MemorySystem& memory() const noexcept { return memory_; }

  /// Migrates (swaps) the threads on two cores of different islands, with
  /// their workload state, and charges `stall_seconds` of pipeline drain +
  /// cache warmup to both islands.
  void migrate(std::size_t island_a, std::size_t core_a, std::size_t island_b,
               std::size_t core_b, double stall_seconds = 0.0);

  /// Upper bound on chip dynamic+leakage power used to express budgets as a
  /// percentage of "maximum chip power": every core at the top DVFS level,
  /// full utilization, worst-case workload activity/capacitance.
  /// (Computed by the power model; stored here at wiring time.)
  void set_max_power(units::Watts watts) noexcept {
    max_power_w_ = watts.value();
  }
  units::Watts max_power() const noexcept {
    return units::Watts{max_power_w_};
  }

 private:
  void step_batched(double dt_seconds, double congestion);
  void step_scalar(double dt_seconds, double congestion);
  void sync_profile_constants(std::size_t island_idx);

  CmpConfig config_;
  std::vector<Island> islands_;
  MemorySystem memory_;
  TickKernel kernel_;
  bool record_cores_ = true;
  double max_power_w_ = 0.0;

  std::vector<std::size_t> offsets_;  // island -> first flat core index
  workload::DemandBank demand_;       // the batched kernel's workload state
  ChipSoa soa_;
  ChipTick tick_;  // reused across step() calls (no per-tick allocation)
};

}  // namespace cpm::sim
