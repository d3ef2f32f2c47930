// Lumped-RC thermal model (HotSpot's core abstraction): one thermal node per
// core with a vertical conductance to ambient (heat sink path) and lateral
// conductances to grid neighbours:
//
//   C dT_i/dt = P_i - G_v (T_i - T_amb) - sum_j G_l (T_i - T_j)
//
// Integrated with forward Euler using internal substeps sized for stability.
// A direct steady-state solver is provided for validation.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "thermal/floorplan.h"

namespace cpm::thermal {

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
};

class RcThermalModel {
 public:
  RcThermalModel(Floorplan floorplan, ThermalParams params);

  /// Advances dt seconds with per-core power draw `power_w` (size must equal
  /// the core count).
  void step(std::span<const double> power_w, double dt_seconds);

  /// Temperatures for constant `power_w` as t -> infinity (direct solve).
  std::vector<double> steady_state(std::span<const double> power_w) const;

  const std::vector<double>& temperatures() const noexcept { return temps_; }
  double temperature(std::size_t core) const noexcept { return temps_[core]; }
  double max_temperature() const noexcept;
  /// Spreader-node temperature (two-layer mode; ambient otherwise).
  double spreader_temperature() const noexcept { return spreader_temp_; }

  void reset(double temp_c);
  const Floorplan& floorplan() const noexcept { return floorplan_; }
  const ThermalParams& params() const noexcept { return params_; }

 private:
  Floorplan floorplan_;
  ThermalParams params_;
  std::vector<double> temps_;
  double spreader_temp_;
  double max_stable_dt_;  // explicit-Euler stability bound
  // Flat CSR copy of the floorplan adjacency plus a reused scratch buffer:
  // step() runs every simulation tick, so it must not chase nested vectors
  // or allocate.
  std::vector<std::size_t> neighbor_offsets_;
  std::vector<std::size_t> neighbor_ids_;
  std::vector<double> next_;
  double inv_c_;  // 1 / params_.capacitance
  // Substep split for the last dt step() saw (NaN: none yet, and never
  // equal to a dt, so the first step always derives it).
  double step_dt_ = std::numeric_limits<double>::quiet_NaN();
  std::size_t substeps_ = 1;
  double h_ = 0.0;
};

}  // namespace cpm::thermal
