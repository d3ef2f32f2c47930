// Lumped-RC thermal model (HotSpot's core abstraction): one thermal node per
// core with a vertical conductance to ambient (heat sink path) and lateral
// conductances to grid neighbours:
//
//   C dT_i/dt = P_i - G_v (T_i - T_amb) - sum_j G_l (T_i - T_j)
//
// Integrated with forward Euler using internal substeps sized for stability.
// A direct steady-state solver is provided for validation.
//
// Each substep is a grid stencil (`// vectorize: thermal.rc_step`). The
// temperatures live in a padded buffer: the cores' row-major grid with one
// halo row above and one below, so a core's up, down, left and right
// neighbours are the loads at -cols, +cols, -1 and +1, all in bounds. A
// core on a grid edge has no neighbour there; per-core edge flags select
// each neighbour term in or out (a compare-select, never a multiply by 0,
// which would turn an infinite temperature into NaN), in the floorplan's
// neighbour order, so each flow rounds exactly as a walk over
// Floorplan::neighbors would (tests/thermal/test_rc.cpp holds the two
// together bit for bit).
//
// One model can hold a batch of chips with the same floorplan and
// parameters (core::ChipPlant steps a batch in lockstep): their grids are
// stacked in one padded buffer, chip k's rows below chip k-1's, and the
// edge flags make every chip boundary a grid edge, so each chip's cores
// see only their own neighbours and every chip steps bit for bit as it
// would alone. One stencil call covers the whole stack, except in
// two-layer mode, where each chip sinks into its own spreader and gets a
// call of its own.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "thermal/floorplan.h"
#include "util/isa.h"

namespace cpm::thermal {

namespace kernels {

/// The constants of one substep, as RcThermalModel::step passes them.
struct RcStepArgs {
  double below;  // the node cores sink into: the spreader, or ambient
  double vertical_conductance;
  double lateral_conductance;
  double h;      // substep length, seconds
  double inv_c;  // 1 / capacitance
};

/// One explicit-Euler substep over `n` cores of a grid `cols` wide, at `isa`
/// (every ISA gives the same bits): next[i] = T + h * flow * inv_c with
/// flow = P - G_v (T - below) - G_l (T - T_j) over each neighbour j that
/// core i has. `temps` points at core 0 of a padded buffer readable from
/// temps[-cols] to temps[n + cols - 1]. `edge` holds four columns, up,
/// down, left and right, `edge_stride` (>= n) apart: nonzero where core i
/// has that neighbour. `next` must not overlap the other arrays.
void rc_step(util::Isa isa, std::size_t n, std::size_t cols,
             const RcStepArgs& args, const double* temps,
             const double* power_w, const double* edge,
             std::size_t edge_stride, double* next) noexcept;

/// The four edge-flag columns (up, down, left, right; each `chips` *
/// num_cores() long) of `chips` copies of `floorplan` stacked one below
/// the other: 1.0 where a core has that neighbour inside its own chip.
std::vector<double> stacked_edges(const Floorplan& floorplan,
                                  std::size_t chips);

}  // namespace kernels

struct ThermalParams {
  double ambient_c = 45.0;
  /// Vertical (core -> sink-or-spreader) conductance, W/K per core.
  double vertical_conductance = 0.8;
  /// Lateral (core -> neighbour core) conductance, W/K per shared edge.
  double lateral_conductance = 2.0;
  /// Thermal capacitance per core, J/K. Small (CMP silicon+spreader slice)
  /// so that thermal time constants land in the millisecond range the
  /// controllers operate at.
  double capacitance = 0.02;

  /// Two-layer (HotSpot-style) mode: cores conduct vertically into a shared
  /// heat-spreader node, which conducts to ambient through the sink. The
  /// spreader's large capacitance adds the slow (hundreds of ms) thermal
  /// time constant real packages exhibit on top of the fast silicon one.
  bool two_layer = false;
  double spreader_capacitance = 2.0;            // J/K (whole spreader)
  double spreader_to_ambient_conductance = 6.0; // W/K (spreader+sink path)

  bool operator==(const ThermalParams&) const = default;
};

class RcThermalModel {
 public:
  /// The thermal model of `chips` (>= 1) chips of `floorplan`, all under
  /// `params`; chip k owns cores [k * n, (k + 1) * n) with n =
  /// floorplan.num_cores().
  RcThermalModel(Floorplan floorplan, ThermalParams params,
                 std::size_t chips = 1);

  /// Advances dt seconds with per-core power draw `power_w` (size must equal
  /// the core count of every chip together). `dt_seconds` must be finite
  /// and positive, else std::invalid_argument.
  void step(std::span<const double> power_w, double dt_seconds);

  /// One chip's temperatures for constant `power_w` (one chip's cores) as
  /// t -> infinity (direct solve).
  std::vector<double> steady_state(std::span<const double> power_w) const;

  std::size_t num_chips() const noexcept { return chips_; }
  /// Per-core temperatures of every chip in core order. The view stays
  /// valid until the next step() or reset().
  std::span<const double> temperatures() const noexcept {
    return {grid_.data() + current_ * padded_ + floorplan_.cols(),
            chips_ * floorplan_.num_cores()};
  }
  /// Chip `chip`'s slice of temperatures().
  std::span<const double> chip_temperatures(std::size_t chip) const noexcept {
    return temperatures().subspan(chip * floorplan_.num_cores(),
                                  floorplan_.num_cores());
  }
  double temperature(std::size_t core) const noexcept {
    return temperatures()[core];
  }
  double max_temperature(std::size_t chip = 0) const noexcept;
  /// Chip `chip`'s spreader-node temperature (two-layer mode; ambient
  /// otherwise).
  double spreader_temperature(std::size_t chip = 0) const noexcept {
    return spreader_temp_[chip];
  }

  void reset(double temp_c);
  const Floorplan& floorplan() const noexcept { return floorplan_; }
  const ThermalParams& params() const noexcept { return params_; }

 private:
  /// Interior (core 0) of padded buffer `b` (0 or 1).
  double* interior(std::size_t b) noexcept {
    return grid_.data() + b * padded_ + floorplan_.cols();
  }

  Floorplan floorplan_;
  ThermalParams params_;
  std::size_t chips_;
  // One allocation: two padded temperature buffers of padded_ doubles each
  // (`current_` holds the temperatures, a substep writes the other one),
  // then the four edge-flag columns of every chip's cores each.
  std::vector<double> grid_;
  std::size_t padded_;       // (chips * rows + 2) * cols
  std::size_t current_ = 0;  // which padded buffer holds the temperatures
  std::vector<double> spreader_temp_;  // one per chip
  double max_stable_dt_;  // explicit-Euler stability bound
  double inv_c_;  // 1 / params_.capacitance
  // Substep split for the last dt step() saw (NaN: none yet, and never
  // equal to a dt, so the first step always derives it).
  double step_dt_ = std::numeric_limits<double>::quiet_NaN();
  std::size_t substeps_ = 1;
  double h_ = 0.0;
};

}  // namespace cpm::thermal
