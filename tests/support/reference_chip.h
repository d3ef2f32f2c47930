// A test-side reference for sim::Chip, and the lockstep harness that holds
// the two together.
//
// ReferenceChip steps the chip model object by object: one library
// sim::CoreModel per core, each stepping its own workload::WorkloadInstance,
// under one library sim::DvfsActuator per island, with the shared memory
// system's congestion fed back a tick late.
// It keeps every core's state in its own objects, so it shares none of the
// chip's structure-of-arrays code: the demand bank, the operating-point
// broadcast and the micro-model sweep are all checked against it.
//
// ChipLockstep steps a sim::Chip batch and one ReferenceChip per chip of it,
// each built from the same inputs, side by side, applies every actuator
// call and migration to both, and compares them bit for bit after each
// tick: each chip's ChipTick, its slice of the ChipSoa columns the reference
// produces (a superset of those core::ChipPlant and core::SimulationRun
// read), and each island's DVFS level, pending stall and transition count.
// run_random_lockstep drives one over a seeded stream of the actuator calls
// core::SimulationRun and its calibration make.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/chip.h"
#include "sim/core.h"
#include "sim/dvfs.h"
#include "sim/memory.h"
#include "workload/mixes.h"

namespace cpm::reference {

class ReferenceChip {
 public:
  /// Builds the cores of `mix` as sim::Chip does: core seeds drawn in flat
  /// core order from one xoshiro256++ stream seeded with `seed`, workload
  /// phase offsets 1.7 ms apart, every island at the top DVFS level. The
  /// inputs must be ones sim::Chip accepts.
  ReferenceChip(const sim::CmpConfig& config, const workload::Mix& mix,
                std::uint64_t seed);
  // The actuators point at config_.dvfs.
  ReferenceChip(const ReferenceChip&) = delete;
  ReferenceChip& operator=(const ReferenceChip&) = delete;

  /// Advances every core one tick. The record (per-core detail included)
  /// and soa() are overwritten by the next call.
  const sim::ChipTick& step(double dt_seconds);

  sim::DvfsActuator& actuator(std::size_t idx) noexcept {
    return actuators_[idx];
  }

  /// The per-core results of the last step() in sim::Chip's flat layout.
  /// The demand columns other than demand_activity and power_w stay zero.
  const sim::ChipSoa& soa() const noexcept { return soa_; }

  /// Swaps the two cores' threads (with their workload state) and charges
  /// `stall_seconds` to both islands, as sim::Chip::migrate does; throws
  /// std::invalid_argument on the indices sim::Chip::migrate rejects.
  void migrate(std::size_t island_a, std::size_t core_a, std::size_t island_b,
               std::size_t core_b, double stall_seconds);

 private:
  sim::CmpConfig config_;
  std::vector<std::vector<sim::CoreModel>> cores_;  // [island][core]
  std::vector<sim::DvfsActuator> actuators_;
  sim::MemorySystem memory_;
  sim::ChipSoa soa_;
  sim::ChipTick tick_;
};

class ChipLockstep {
 public:
  /// A sim::Chip batch of `chips` and a reference chip for each, from the
  /// same inputs; `record_cores` is passed to sim::Chip::set_record_cores
  /// (the per-core detail is compared when on).
  ChipLockstep(const sim::CmpConfig& config,
               std::span<const sim::ChipSpec> chips, bool record_cores);
  /// A batch of one.
  ChipLockstep(const sim::CmpConfig& config, const workload::Mix& mix,
               std::uint64_t seed, bool record_cores);

  sim::Chip& chip() noexcept { return chip_; }

  /// Applies `call` to flat island `island`'s actuator on both sides.
  template <class Call>
  void on_actuator(std::size_t island, Call&& call) {
    call(chip_.actuator(island));
    call(references_[island / islands_]->actuator(island % islands_));
  }
  /// Migrates between two flat islands of one chip on both sides.
  void migrate(std::size_t island_a, std::size_t core_a, std::size_t island_b,
               std::size_t core_b, double stall_seconds);

  /// Steps both sides one tick; returns the first difference, or an empty
  /// string when they agree bit for bit.
  std::string step(double dt_seconds);

 private:
  std::size_t islands_;  // per chip
  std::size_t cores_;    // per chip
  sim::Chip chip_;
  std::vector<std::unique_ptr<ReferenceChip>> references_;
};

/// What one run_random_lockstep covered, and its first difference.
struct LockstepReport {
  std::string divergence;  // "tick N: ...", empty when the chips agreed
  std::size_t ticks = 0;   // ticks compared
  std::size_t transitions = 0;  // DVFS level changes, summed over islands
  std::size_t migrations = 0;
  std::size_t stalled_ticks = 0;  // island-ticks that began with a stall
};

/// Runs a ChipLockstep over `chips` for up to `ticks` ticks of
/// config.tick_seconds(), stopping at the first difference. The calls come
/// from a xoshiro256++ stream seeded with `stream_seed`, at the cadence of
/// core::SimulationRun and its calibration:
///   - start-up (or not): every island set_level plus consume_stall(1.0);
///   - each PIC boundary, per island: a PIC request_frequency (in and out
///     of the table's range), a calibration set_level to a random level or
///     to the level already set, or nothing;
///   - each GPM boundary, each half the time: MaxBIPS set_level on every
///     island (random or the level already set), then, for each chip, a
///     migration between two of its islands with no stall, one shorter
///     than a tick or one longer.
/// The record-cores setting is drawn from the same stream.
LockstepReport run_random_lockstep(const sim::CmpConfig& config,
                                   std::span<const sim::ChipSpec> chips,
                                   std::uint64_t stream_seed,
                                   std::size_t ticks);
/// The same over a batch of one.
LockstepReport run_random_lockstep(const sim::CmpConfig& config,
                                   const workload::Mix& mix,
                                   std::uint64_t chip_seed,
                                   std::uint64_t stream_seed,
                                   std::size_t ticks);

}  // namespace cpm::reference
