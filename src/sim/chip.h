// The CMP: islands of cores behind one DVFS actuator each, plus the shared
// memory system, built from a CmpConfig and an application mix (Table III).
// Chip::step advances every core one tick and threads the shared-memory
// congestion coupling between them.
//
// A Chip object holds a batch of one or more chips that share one CmpConfig
// (each with its own mix and seed), stepped in lockstep: core::ChipPlant
// steps a cluster shard's chips this way, and a solo simulation is a batch
// of one. Islands and cores are numbered flat across the batch: chip k owns
// islands [k * I, (k + 1) * I) and cores [k * C, (k + 1) * C), with I and C
// the config's island and core counts, so every per-core and per-island
// sweep runs once over the whole batch. Each chip keeps its own memory
// system (congestion), actuators and tick record; nothing couples two chips.
//
// Tick-state layout: the chip owns all per-core per-tick state as
// structure-of-arrays in island-major flat core order: the workload demand
// state in a workload::DemandBank, the rest in ChipSoa. Each core's state
// lives there once. A tick steps the bank and then runs the core
// micro-model as one flat sweep over those arrays for the whole batch (each
// chip's congestion reaches it through a per-core column), which GCC
// vectorizes (the loops carry `// vectorize:` tags the vectorize_guard test
// checks) and which runs at the host's vector width (util/isa.h). The
// island and chip reductions then land in flat columns (ReductionSoa), where
// core::TickLedger's sweeps add them up for every chip at once. The test
// tree's reference chip (tests/support/reference_chip.h) steps the same
// model object by object, one CoreModel per core under one DvfsActuator per
// island; the tests and the fuzz harness run it in lockstep with this chip
// and hold the two bit-identical. ChipTick / IslandTick are thin record
// views filled from the columns each tick (IslandTick only while
// record_cores() is on).
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

/// Contiguous per-core tick state of every chip of the batch, island-major
/// (flat island i owns flat core indices [island_offset(i),
/// island_offset(i+1))). Inputs are refreshed by
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
  // -- per-core memory congestion term, 1 + gamma * max(0, congestion) of
  // the core's chip (written for the next tick when a tick ends) --
  std::vector<double> congestion_term;
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

/// The per-tick island and chip reductions of every chip of the batch, as
/// flat columns written by each step(): flat island j (chip j / I's island j
/// % I) at [j], chip k at [k]. Each island sums its cores in core order and
/// each chip its islands in island order.
struct ReductionSoa {
  // -- per flat island --
  std::vector<double> island_bips;          // summed over cores
  std::vector<double> island_utilization;   // mean over cores
  std::vector<double> island_instructions;  // summed
  std::vector<double> island_bandwidth;     // summed bandwidth demand
  // -- per chip --
  std::vector<double> chip_bips;
  std::vector<double> chip_instructions;
};

namespace kernels {

/// Pass 2 of the tick, the core micro-model, over `cores` flat columns at
/// `isa` (every ISA gives the same bits). `cong_term` is each core's
/// 1 + gamma * max(0, congestion) and `instr_scale` is 1e9 * dt, hoisted as
/// CoreModel::step computes them. The outputs must not overlap the inputs.
void micro_model_sweep(util::Isa isa, std::size_t cores,
                       const double* cong_term, double instr_scale,
                       const double* cpi,
                       const double* mem, const double* dbw,
                       const double* invf, const double* run, double* instr,
                       double* bips, double* util, double* bw) noexcept;

}  // namespace kernels

/// Aggregated island observation for one tick (a record view of the
/// chip's ReductionSoa columns).
struct IslandTick {
  double bips = 0.0;              // summed over cores
  double utilization = 0.0;       // mean over cores
  double instructions = 0.0;      // summed
  double bandwidth_demand = 0.0;  // summed
  std::vector<CoreTick> cores;    // per-core detail (power/thermal inputs)
};

/// Full-chip observation for one tick.
struct ChipTick {
  std::vector<IslandTick> islands;  // empty while record_cores() is false
  double total_bips = 0.0;
  double total_instructions = 0.0;
  /// Core-weighted mean utilization over the whole chip. (Unlike averaging
  /// the per-island means, this stays correct for heterogeneous island
  /// sizes.)
  double utilization = 0.0;
  double congestion = 0.0;  // congestion experienced by this tick
};

/// One chip of a batch: its application mix (borrowed for the
/// constructor's duration) and the seed all its randomness derives from.
struct ChipSpec {
  const workload::Mix* mix;
  std::uint64_t seed;
};

class Chip {
 public:
  /// Builds a batch of one chip from `mix` and `seed` (see below).
  Chip(const CmpConfig& config, const workload::Mix& mix, std::uint64_t seed);
  /// Builds one chip per spec, in order, all under `config`. Each mix's
  /// topology must match `config` (same island count and total core count
  /// -- island sizes may differ from config.cores_per_island as long as the
  /// totals agree), and `chips` must not be empty, or std::invalid_argument
  /// is thrown. Chip k's randomness derives from chips[k].seed alone, so it
  /// steps exactly as it would in a batch of its own.
  Chip(const CmpConfig& config, std::span<const ChipSpec> chips);
  // Each actuator points at this chip's own DVFS table, so a copy or a move
  // would leave the new chip's actuators reading the old one's.
  Chip(const Chip&) = delete;
  Chip& operator=(const Chip&) = delete;

  /// Advances every core of every chip one tick. Returns the first chip's
  /// record (see tick()).
  const ChipTick& step(double dt_seconds);
  /// Chip `chip`'s record of the last step(), overwritten by the next one;
  /// copy it to retain.
  const ChipTick& tick(std::size_t chip) const noexcept {
    return ticks_[chip];
  }

  std::size_t num_chips() const noexcept { return ticks_.size(); }
  /// Islands of every chip together (config().num_islands per chip).
  std::size_t num_islands() const noexcept { return actuators_.size(); }
  /// Flat island `idx`'s DVFS knob, shared by all its cores.
  DvfsActuator& actuator(std::size_t idx) noexcept { return actuators_[idx]; }
  const DvfsActuator& actuator(std::size_t idx) const noexcept {
    return actuators_[idx];
  }

  /// Cores of every chip together (config().total_cores() per chip).
  std::size_t num_cores() const noexcept { return offsets_.back(); }
  /// First flat core index of flat island `idx`; offsets_[num_islands()] is
  /// the total core count, so [offset(i), offset(i+1)) is island i's range.
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
  /// The island and chip reductions of the last step().
  const ReductionSoa& reductions() const noexcept { return reductions_; }

  /// When false, step() fills no IslandTick records and leaves
  /// ChipTick::islands empty (the ReductionSoa and ChipSoa columns carry the
  /// island and per-core detail) -- the hot-loop configuration. Default true
  /// for record-surface compatibility.
  void set_record_cores(bool record);
  bool record_cores() const noexcept { return record_cores_; }

  const CmpConfig& config() const noexcept { return config_; }

  /// Migrates (swaps) the threads on two cores of different islands of one
  /// chip (flat island indices), with their workload state, and charges
  /// `stall_seconds` of pipeline drain + cache warmup to both islands. An
  /// island or core index out of range, two cores of one island or two
  /// islands of different chips throws std::invalid_argument and leaves the
  /// chip unchanged.
  void migrate(std::size_t island_a, std::size_t core_a, std::size_t island_b,
               std::size_t core_b, double stall_seconds = 0.0);

 private:
  void sync_profile_constants(std::size_t g);
  /// Writes chip `chip`'s congestion term (from its memory system's current
  /// congestion) into its cores' congestion_term slots.
  void write_congestion_term(std::size_t chip);
  /// Fills every ChipTick's IslandTick records from the columns.
  void fill_island_records();

  CmpConfig config_;
  std::vector<DvfsActuator> actuators_;  // one per island
  std::vector<MemorySystem> memory_;     // one per chip
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
  ReductionSoa reductions_;
  // One per chip, reused across step() calls (no per-tick allocation).
  std::vector<ChipTick> ticks_;
};

}  // namespace cpm::sim
