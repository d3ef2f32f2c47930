#include "core/tick_ledger.h"

#include <stdexcept>

#include "core/simulation.h"
#include "thermal/hotspot.h"
#include "util/stats.h"

namespace cpm::core {

namespace {

// Element-wise, in the order a run of its own adds its islands up, so every
// ISA's wrapper gives the bits a scalar loop would: an interval's first tick
// adds to 0.0, as it would to a freshly zeroed sum. __restrict tells GCC
// the columns are distinct, which spares it run-time alias checks.
CPM_ALWAYS_INLINE void ledger_islands(
    std::size_t n, double dt, bool opens, const double* __restrict util,
    const double* __restrict bips, const double* __restrict instr,
    const double* __restrict power, double* __restrict pic_util,
    double* __restrict pic_bips, double* __restrict pic_instr,
    double* __restrict pic_power, double* __restrict run_instr,
    double* __restrict run_energy, double* __restrict run_bips) noexcept {
  // vectorize: core.ledger.islands
  for (std::size_t j = 0; j < n; ++j) {
    pic_util[j] = (opens ? 0.0 : pic_util[j]) + util[j];
    pic_bips[j] = (opens ? 0.0 : pic_bips[j]) + bips[j];
    pic_instr[j] = (opens ? 0.0 : pic_instr[j]) + instr[j];
    pic_power[j] = (opens ? 0.0 : pic_power[j]) + power[j];
    run_instr[j] += instr[j];
    run_energy[j] += power[j] * dt;
    run_bips[j] += bips[j];
  }
}

// Every lane has seen `count` samples, so the lanes share one divisor and
// each is RunningMean::add's update, bit for bit.
CPM_ALWAYS_INLINE void ledger_chips(
    std::size_t n, double count, const double* __restrict power,
    const double* __restrict bips, const double* __restrict instr,
    double* __restrict mean_power, double* __restrict mean_bips,
    double* __restrict run_instr) noexcept {
  // vectorize: core.ledger.chips
  for (std::size_t k = 0; k < n; ++k) {
    mean_power[k] = util::RunningMean::next(mean_power[k], power[k], count);
    mean_bips[k] = util::RunningMean::next(mean_bips[k], bips[k], count);
    run_instr[k] += instr[k];
  }
}

CPM_ALWAYS_INLINE void ledger_merge(
    std::size_t n, bool opens, const double* __restrict pic_util,
    const double* __restrict pic_bips, const double* __restrict pic_instr,
    const double* __restrict pic_power, double* __restrict gpm_util,
    double* __restrict gpm_bips, double* __restrict gpm_instr,
    double* __restrict gpm_power) noexcept {
  // vectorize: core.ledger.merge
  for (std::size_t j = 0; j < n; ++j) {
    gpm_util[j] = (opens ? 0.0 : gpm_util[j]) + pic_util[j];
    gpm_bips[j] = (opens ? 0.0 : gpm_bips[j]) + pic_bips[j];
    gpm_instr[j] = (opens ? 0.0 : gpm_instr[j]) + pic_instr[j];
    gpm_power[j] = (opens ? 0.0 : gpm_power[j]) + pic_power[j];
  }
}

// One dispatched call per tick runs every sweep.
CPM_ALWAYS_INLINE void ledger_tick_body(
    const kernels::LedgerTick* tick) noexcept {
  const kernels::LedgerTick& t = *tick;
  ledger_islands(t.islands, t.dt, t.opens_interval, t.util, t.bips, t.instr,
                 t.power, t.pic_util, t.pic_bips, t.pic_instr, t.pic_power,
                 t.run_instr, t.run_energy, t.run_bips);
  ledger_chips(t.chips, t.count, t.chip_power, t.chip_bips, t.chip_instr,
               t.mean_power, t.mean_bips, t.chip_run_instr);
  if (t.closes_interval) {
    ledger_merge(t.islands, t.opens_window, t.pic_util, t.pic_bips,
                 t.pic_instr, t.pic_power, t.gpm_util, t.gpm_bips,
                 t.gpm_instr, t.gpm_power);
  }
}

}  // namespace

namespace kernels {

void ledger_tick(util::Isa isa, const LedgerTick* tick) noexcept {
  util::dispatch_kernel<&ledger_tick_body>(isa, tick);
}

}  // namespace kernels

void IslandSums::resize(std::size_t islands) {
  utilization.assign(islands, 0.0);
  bips.assign(islands, 0.0);
  instructions.assign(islands, 0.0);
  power_w.assign(islands, 0.0);
}

TickLedger::TickLedger(const ChipPlant& plant,
                       std::span<const double> threshold_c,
                       std::size_t ticks_per_pic, std::size_t pics_per_gpm)
    : cores_per_chip_(plant.chip().config().total_cores()),
      ticks_per_pic_(ticks_per_pic),
      pics_per_gpm_(pics_per_gpm),
      ticks_to_pic_(ticks_per_pic) {
  const std::size_t chips = plant.num_chips();
  if (threshold_c.size() != chips) {
    throw std::invalid_argument(
        "TickLedger: needs one hotspot threshold per chip");
  }
  if (ticks_per_pic == 0 || pics_per_gpm == 0) {
    throw std::invalid_argument("TickLedger: PIC and GPM cadence must be > 0");
  }
  const std::size_t islands = plant.chip().num_islands();
  pic.resize(islands);
  gpm.resize(islands);
  island_instructions.assign(islands, 0.0);
  island_energy_j.assign(islands, 0.0);
  island_bips.assign(islands, 0.0);
  mean_power_w.assign(chips, 0.0);
  mean_bips.assign(chips, 0.0);
  instructions.assign(chips, 0.0);
  hot_s.assign(chips, 0.0);
  hotspot_threshold_c.reserve(chips * cores_per_chip_);
  for (const double threshold : threshold_c) {
    hotspot_threshold_c.insert(hotspot_threshold_c.end(), cores_per_chip_,
                               threshold);
  }
  core_hot_s.assign(chips * cores_per_chip_, 0.0);
  // Every column keeps its storage for the ledger's (and the plant's)
  // life, so the sweep's pointers are set once.
  const sim::ReductionSoa& r = plant.chip().reductions();
  sweep_ = kernels::LedgerTick{
      .islands = islands,
      .chips = chips,
      .util = r.island_utilization.data(),
      .bips = r.island_bips.data(),
      .instr = r.island_instructions.data(),
      .power = plant.island_power_w().data(),
      .pic_util = pic.utilization.data(),
      .pic_bips = pic.bips.data(),
      .pic_instr = pic.instructions.data(),
      .pic_power = pic.power_w.data(),
      .run_instr = island_instructions.data(),
      .run_energy = island_energy_j.data(),
      .run_bips = island_bips.data(),
      .gpm_util = gpm.utilization.data(),
      .gpm_bips = gpm.bips.data(),
      .gpm_instr = gpm.instructions.data(),
      .gpm_power = gpm.power_w.data(),
      .chip_power = plant.chip_power_w().data(),
      .chip_bips = r.chip_bips.data(),
      .chip_instr = r.chip_instructions.data(),
      .mean_power = mean_power_w.data(),
      .mean_bips = mean_bips.data(),
      .chip_run_instr = instructions.data(),
  };
  // Over fewer islands than one AVX-512 vector holds (a batch of one small
  // chip), the wide wrappers' set-up costs more than their vectors save: on
  // an AVX-512 Xeon the baseline tier ran advance() for one 4-core, 2-island
  // chip ~4 ns per tick faster, while from 8 islands up the wide tiers won.
  sweep_isa_ = islands < 8 ? util::Isa::kBaseline : util::host_isa();
}

TickLedger::Closes TickLedger::advance(const ChipPlant& plant, double dt) {
  ++ticks_;
  sweep_.dt = dt;
  sweep_.opens_interval = ticks_to_pic_ == ticks_per_pic_;
  sweep_.closes_interval = ticks_to_pic_ == 1;
  sweep_.opens_window = pics_in_window_ == 0;
  sweep_.count = static_cast<double>(ticks_);
  kernels::ledger_tick(sweep_isa_, &sweep_);
  observed_s += dt;
  const std::span<const double> temps = plant.thermal().temperatures();
  if (thermal::kernels::hotspot_accumulate(
          util::host_isa(), temps.size(), temps.data(),
          hotspot_threshold_c.data(), dt, core_hot_s.data())) {
    // Some core is hot: each chip with one adds the tick to its hot time.
    for (std::size_t k = 0; k < hot_s.size(); ++k) {
      bool any = false;
      for (std::size_t g = k * cores_per_chip_; g < (k + 1) * cores_per_chip_;
           ++g) {
        any = any || temps[g] > hotspot_threshold_c[g];
      }
      if (any) hot_s[k] += dt;
    }
  }
  if (--ticks_to_pic_ != 0) return Closes::kNothing;
  ticks_to_pic_ = ticks_per_pic_;
  if (++pics_in_window_ != pics_per_gpm_) return Closes::kPicInterval;
  pics_in_window_ = 0;
  return Closes::kGpmWindow;
}

}  // namespace cpm::core
