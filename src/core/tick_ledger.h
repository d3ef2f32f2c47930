// The tick ledger of a lockstep batch (core::RunBatch, or a solo run as a
// batch of one): flat columns holding everything the batch's runs add up
// tick by tick -- the per-interval island sums the PIC and GPM boundaries
// average, the run totals, each chip's running means and each core's
// hotspot time -- with the PIC/GPM cadence the runs share. advance() adds
// the tick the plant just stepped with one sweep per column family over
// every chip of the batch; each run's boundaries read and reset its own
// slice. Columns are flat like the plant's: chip k's island i at
// [k * I + i], its core c at [k * C + c], chip k itself at [k]. Every lane
// performs the operations, in the order, a run of its own would, so a
// batched run is bit for bit a solo one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/isa.h"

namespace cpm::core {

class ChipPlant;

namespace kernels {

/// One tick's ledger sweeps over a batch (see TickLedger::advance). The
/// column pointers are flat over the batch's `islands` islands or `chips`
/// chips; no output may overlap an input or another output.
struct LedgerTick {
  std::size_t islands = 0;
  std::size_t chips = 0;
  double dt = 0.0;
  /// The tick opens a PIC interval: its sums start from 0.0.
  bool opens_interval = false;
  /// The tick closes a PIC interval: its sums join the GPM window's.
  bool closes_interval = false;
  /// The closing interval opens a GPM window: its sums start from 0.0.
  bool opens_window = false;
  /// Every chip's sample count after this tick.
  double count = 0.0;
  // -- the tick's island reductions and island power --
  const double* util = nullptr;
  const double* bips = nullptr;
  const double* instr = nullptr;
  const double* power = nullptr;
  // -- the open PIC interval's sums and the run totals --
  double* pic_util = nullptr;
  double* pic_bips = nullptr;
  double* pic_instr = nullptr;
  double* pic_power = nullptr;
  double* run_instr = nullptr;
  double* run_energy = nullptr;
  double* run_bips = nullptr;
  // -- the GPM window's sums --
  double* gpm_util = nullptr;
  double* gpm_bips = nullptr;
  double* gpm_instr = nullptr;
  double* gpm_power = nullptr;
  // -- the tick's chip totals and the chip columns --
  const double* chip_power = nullptr;
  const double* chip_bips = nullptr;
  const double* chip_instr = nullptr;
  double* mean_power = nullptr;
  double* mean_bips = nullptr;
  double* chip_run_instr = nullptr;
};

/// Runs `tick`'s sweeps at `isa` (every ISA gives the same bits). The
/// island sweep adds the tick's utilization, BIPS, instructions and power to
/// the PIC interval's sums (to 0.0 when the tick opens the interval), and
/// instructions, energy (power * dt) and BIPS to the run totals. The chip
/// sweep folds the tick's chip power and BIPS, every lane's `count`-th
/// sample, into their running means (util::RunningMean::next) and adds its
/// instructions to the run totals. When the tick closes the interval, the
/// merge sweep then adds the interval's sums to the GPM window's (to 0.0
/// when the interval opens the window).
void ledger_tick(util::Isa isa, const LedgerTick* tick) noexcept;

}  // namespace kernels

/// One set of per-island sums over an interval, flat over the batch.
struct IslandSums {
  std::vector<double> utilization;
  std::vector<double> bips;
  std::vector<double> instructions;
  std::vector<double> power_w;

  void resize(std::size_t islands);  // every sum 0.0
};

class TickLedger {
 public:
  /// What the tick advance() just added closes.
  enum class Closes { kNothing, kPicInterval, kGpmWindow };

  /// The ledger of `plant`'s chips, with chip k's cores hot above
  /// threshold_c[k] (one entry per chip, else std::invalid_argument), a PIC
  /// interval every `ticks_per_pic` ticks and a GPM window every
  /// `pics_per_gpm` PIC intervals (both > 0).
  TickLedger(const ChipPlant& plant, std::span<const double> threshold_c,
             std::size_t ticks_per_pic, std::size_t pics_per_gpm);

  /// The columns keep their storage (and the ledger points into the
  /// plant's), so a ledger is neither copied nor moved.
  TickLedger(const TickLedger&) = delete;
  TickLedger& operator=(const TickLedger&) = delete;

  /// Adds the tick `plant` (the plant this ledger was built for) just
  /// stepped, `dt` seconds long, to every column, and says which boundary
  /// it closes. A GPM window closes on the tick that closes its last PIC
  /// interval. When the tick closes a PIC interval, its sums are also
  /// merged into the GPM window's before advance() returns. The boundaries
  /// reset nothing: the next interval's first tick, and the next window's
  /// first merge, start the sums over.
  Closes advance(const ChipPlant& plant, double dt);

  /// Ticks added so far.
  std::uint64_t ticks() const noexcept { return ticks_; }

  // -- island columns --
  IslandSums pic;  // the PIC interval the last tick belongs to
  IslandSums gpm;  // the GPM window's PIC intervals closed so far
  std::vector<double> island_instructions;  // run totals
  std::vector<double> island_energy_j;
  std::vector<double> island_bips;  // summed; a run divides by ticks()
  // -- chip columns --
  std::vector<double> mean_power_w;  // running means over every tick
  std::vector<double> mean_bips;
  std::vector<double> instructions;  // run totals
  std::vector<double> hot_s;         // time with >= 1 core above threshold
  double observed_s = 0.0;           // time observed (every chip alike)
  // -- core columns --
  std::vector<double> hotspot_threshold_c;  // written once
  std::vector<double> core_hot_s;

 private:
  std::size_t cores_per_chip_;
  std::size_t ticks_per_pic_;
  std::size_t pics_per_gpm_;
  std::uint64_t ticks_ = 0;
  std::size_t ticks_to_pic_;  // ticks left before the next PIC boundary
  std::size_t pics_in_window_ = 0;
  kernels::LedgerTick sweep_;  // advance()'s sweep over the columns above
  util::Isa sweep_isa_;        // the tier sweep_ runs at
};

}  // namespace cpm::core
