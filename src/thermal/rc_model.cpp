#include "thermal/rc_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace cpm::thermal {

namespace {

// The substep stencil. Each neighbour term is taken in the floorplan's
// order (up, down, left, right) and selected in or out by its edge flag; a
// term is computed on every lane, and on an edge it reads whatever the
// halo or the wrapped-around row holds, which the select then discards.
// For GCC to if-convert the selects, every selected value is loaded into a
// local first.
CPM_ALWAYS_INLINE void rc_step_body(
    std::size_t n, std::size_t cols, const kernels::RcStepArgs& args,
    const double* __restrict temps, const double* __restrict power,
    const double* __restrict edge, std::size_t edge_stride,
    double* __restrict next) noexcept {
  const double below = args.below;
  const double g_v = args.vertical_conductance;
  const double g_l = args.lateral_conductance;
  const double h = args.h;
  const double inv_c = args.inv_c;
  const double* __restrict up = temps - cols;
  const double* __restrict down = temps + cols;
  const double* __restrict left = temps - 1;
  const double* __restrict right = temps + 1;
  const double* __restrict has_up = edge;
  const double* __restrict has_down = edge + edge_stride;
  const double* __restrict has_left = edge + 2 * edge_stride;
  const double* __restrict has_right = edge + 3 * edge_stride;
  // vectorize: thermal.rc_step
  for (std::size_t i = 0; i < n; ++i) {
    const double t = temps[i];
    const double tu = up[i];
    const double td = down[i];
    const double tl = left[i];
    const double tr = right[i];
    const double f0 = power[i] - g_v * (t - below);
    const double f1 = has_up[i] != 0.0 ? f0 - g_l * (t - tu) : f0;
    const double f2 = has_down[i] != 0.0 ? f1 - g_l * (t - td) : f1;
    const double f3 = has_left[i] != 0.0 ? f2 - g_l * (t - tl) : f2;
    const double f4 = has_right[i] != 0.0 ? f3 - g_l * (t - tr) : f3;
    next[i] = t + h * f4 * inv_c;
  }
}

/// step()'s argument errors, thrown out of line so the checks cost the tick
/// only their compares.
[[noreturn, gnu::cold, gnu::noinline]] void throw_step_error(const char* what) {
  throw std::invalid_argument(std::string("RcThermalModel::step: ") + what);
}

}  // namespace

namespace kernels {

void rc_step(util::Isa isa, std::size_t n, std::size_t cols,
             const RcStepArgs& args, const double* temps,
             const double* power_w, const double* edge,
             std::size_t edge_stride, double* next) noexcept {
  util::dispatch_kernel<&rc_step_body>(isa, n, cols, args, temps, power_w,
                                       edge, edge_stride, next);
}

std::vector<double> stacked_edges(const Floorplan& floorplan,
                                  std::size_t chips) {
  const std::size_t rows = floorplan.rows();
  const std::size_t cols = floorplan.cols();
  const std::size_t n = floorplan.num_cores();
  const std::size_t total = chips * n;
  std::vector<double> edge(4 * total, 0.0);
  for (std::size_t g = 0; g < total; ++g) {
    const GridPosition pos = floorplan.position(g % n);
    edge[g] = pos.row > 0 ? 1.0 : 0.0;
    edge[total + g] = pos.row + 1 < rows ? 1.0 : 0.0;
    edge[2 * total + g] = pos.col > 0 ? 1.0 : 0.0;
    edge[3 * total + g] = pos.col + 1 < cols ? 1.0 : 0.0;
  }
  return edge;
}

}  // namespace kernels

RcThermalModel::RcThermalModel(Floorplan floorplan, ThermalParams params,
                               std::size_t chips)
    : floorplan_(std::move(floorplan)), params_(params), chips_(chips) {
  // The explicit-Euler bound below must come out finite and positive: a
  // negative or NaN bound would turn step()'s substep count negative or
  // meaningless.
  for (const double value :
       {params_.ambient_c, params_.vertical_conductance,
        params_.lateral_conductance, params_.capacitance,
        params_.spreader_capacitance,
        params_.spreader_to_ambient_conductance}) {
    if (!std::isfinite(value)) {
      throw std::invalid_argument("RcThermalModel: non-finite parameter");
    }
  }
  if (params_.capacitance <= 0.0 || params_.vertical_conductance <= 0.0 ||
      params_.lateral_conductance < 0.0) {
    throw std::invalid_argument("RcThermalModel: non-physical parameters");
  }
  if (params_.two_layer && (params_.spreader_capacitance <= 0.0 ||
                            params_.spreader_to_ambient_conductance < 0.0)) {
    throw std::invalid_argument(
        "RcThermalModel: non-physical spreader parameters");
  }
  if (chips_ == 0) throw std::invalid_argument("RcThermalModel: 0 chips");
  const std::size_t cols = floorplan_.cols();
  const std::size_t n = floorplan_.num_cores();
  padded_ = (chips_ * floorplan_.rows() + 2) * cols;
  const std::vector<double> edge = kernels::stacked_edges(floorplan_, chips_);
  grid_.assign(2 * padded_, 0.0);
  grid_.insert(grid_.end(), edge.begin(), edge.end());
  spreader_temp_.resize(chips_);
  reset(params_.ambient_c);
  // Explicit Euler is stable for dt < 2C/G_total; use half of that.
  std::size_t max_degree = 0;
  for (std::size_t i = 0; i < n; ++i) {
    max_degree = std::max(max_degree, floorplan_.neighbors(i).size());
  }
  const double g_total =
      params_.vertical_conductance +
      static_cast<double>(max_degree) * params_.lateral_conductance;
  max_stable_dt_ = params_.capacitance / g_total;
  if (params_.two_layer) {
    const double g_spreader =
        params_.spreader_to_ambient_conductance +
        params_.vertical_conductance * static_cast<double>(n);
    max_stable_dt_ =
        std::min(max_stable_dt_, params_.spreader_capacitance / g_spreader);
  }
  inv_c_ = 1.0 / params_.capacitance;
}

void RcThermalModel::step(std::span<const double> power_w, double dt_seconds) {
  const std::size_t n = floorplan_.num_cores();
  const std::size_t total = chips_ * n;
  if (power_w.size() != total) throw_step_error("power size mismatch");
  // The substep split below is a size_t cast of dt / max_stable_dt_, and a
  // negative dt would run the grid backwards in time.
  if (!(dt_seconds > 0.0) || !std::isfinite(dt_seconds)) {
    throw_step_error("dt must be finite and positive");
  }
  // Every caller steps with one fixed tick, so the substep split is derived
  // once per distinct dt rather than with two divisions and a ceil a tick.
  if (dt_seconds != step_dt_) {
    const double substeps = std::ceil(dt_seconds / max_stable_dt_);
    if (!(substeps <
          static_cast<double>(std::numeric_limits<std::size_t>::max()))) {
      throw_step_error("dt exceeds the representable substep count");
    }
    substeps_ = std::max<std::size_t>(1, static_cast<std::size_t>(substeps));
    h_ = dt_seconds / static_cast<double>(substeps_);
    step_dt_ = dt_seconds;
  }
  const util::Isa isa = util::host_isa();
  const double g_v = params_.vertical_conductance;
  const double* edge = grid_.data() + 2 * padded_;
  const std::size_t cols = floorplan_.cols();
  for (std::size_t s = 0; s < substeps_; ++s) {
    const double* temps = interior(current_);
    double* next = interior(current_ ^ 1);
    if (!params_.two_layer) {
      // Every chip sinks directly into ambient: one call over the stack.
      kernels::rc_step(isa, total, cols,
                       {params_.ambient_c, g_v, params_.lateral_conductance,
                        h_, inv_c_},
                       temps, power_w.data(), edge, total, next);
    } else {
      // Cores sink vertically into their own chip's spreader.
      for (std::size_t k = 0; k < chips_; ++k) {
        const std::size_t g0 = k * n;
        const double below = spreader_temp_[k];
        kernels::rc_step(isa, n, cols,
                         {below, g_v, params_.lateral_conductance, h_, inv_c_},
                         temps + g0, power_w.data() + g0, edge + g0, total,
                         next + g0);
        // The spreader's inflow, summed in core order.
        double into_spreader = 0.0;
        for (std::size_t i = g0; i < g0 + n; ++i) {
          into_spreader += g_v * (temps[i] - below);
        }
        const double out = params_.spreader_to_ambient_conductance *
                           (spreader_temp_[k] - params_.ambient_c);
        spreader_temp_[k] +=
            h_ * (into_spreader - out) / params_.spreader_capacitance;
      }
    }
    current_ ^= 1;
  }
}

std::vector<double> RcThermalModel::steady_state(
    std::span<const double> power_w) const {
  const std::size_t cores = floorplan_.num_cores();
  if (power_w.size() != cores) {
    throw std::invalid_argument("RcThermalModel::steady_state: size mismatch");
  }
  // Assemble G * T = rhs (with an extra spreader node in two-layer mode) and
  // solve by Gaussian elimination with partial pivoting. The matrix is
  // small (core count + 1) and diagonally dominant, so this is robust.
  const std::size_t n = params_.two_layer ? cores + 1 : cores;
  std::vector<std::vector<double>> a(n, std::vector<double>(n + 1, 0.0));
  for (std::size_t i = 0; i < cores; ++i) {
    a[i][i] = params_.vertical_conductance +
              params_.lateral_conductance *
                  static_cast<double>(floorplan_.neighbors(i).size());
    for (const std::size_t j : floorplan_.neighbors(i)) {
      a[i][j] -= params_.lateral_conductance;
    }
    if (params_.two_layer) {
      a[i][cores] -= params_.vertical_conductance;  // coupled to spreader
      a[i][n] = power_w[i];
    } else {
      a[i][n] = power_w[i] + params_.vertical_conductance * params_.ambient_c;
    }
  }
  if (params_.two_layer) {
    // Spreader: sum of core inflows = sink outflow.
    for (std::size_t i = 0; i < cores; ++i) {
      a[cores][i] -= params_.vertical_conductance;
    }
    a[cores][cores] =
        params_.spreader_to_ambient_conductance +
        params_.vertical_conductance * static_cast<double>(cores);
    a[cores][n] =
        params_.spreader_to_ambient_conductance * params_.ambient_c;
  }
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    std::swap(a[col], a[pivot]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a[r][col] / a[col][col];
      for (std::size_t c = col; c <= n; ++c) a[r][c] -= factor * a[col][c];
    }
  }
  std::vector<double> temps(n);
  for (std::size_t i = n; i-- > 0;) {
    double acc = a[i][n];
    for (std::size_t j = i + 1; j < n; ++j) acc -= a[i][j] * temps[j];
    temps[i] = acc / a[i][i];
  }
  temps.resize(cores);  // drop the spreader node from the result
  return temps;
}

double RcThermalModel::max_temperature(std::size_t chip) const noexcept {
  const std::span<const double> temps = chip_temperatures(chip);
  return *std::max_element(temps.begin(), temps.end());
}

void RcThermalModel::reset(double temp_c) {
  std::fill_n(interior(current_), chips_ * floorplan_.num_cores(), temp_c);
  std::fill(spreader_temp_.begin(), spreader_temp_.end(),
            params_.two_layer ? temp_c : params_.ambient_c);
}

}  // namespace cpm::thermal
