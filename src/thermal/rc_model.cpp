#include "thermal/rc_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cpm::thermal {

RcThermalModel::RcThermalModel(Floorplan floorplan, ThermalParams params)
    : floorplan_(std::move(floorplan)), params_(params) {
  if (params_.capacitance <= 0.0 || params_.vertical_conductance <= 0.0) {
    throw std::invalid_argument("RcThermalModel: non-physical parameters");
  }
  temps_.assign(floorplan_.num_cores(), params_.ambient_c);
  spreader_temp_ = params_.ambient_c;
  // Explicit Euler is stable for dt < 2C/G_total; use half of that.
  std::size_t max_degree = 0;
  for (std::size_t i = 0; i < floorplan_.num_cores(); ++i) {
    max_degree = std::max(max_degree, floorplan_.neighbors(i).size());
  }
  const double g_total =
      params_.vertical_conductance +
      static_cast<double>(max_degree) * params_.lateral_conductance;
  max_stable_dt_ = params_.capacitance / g_total;
  if (params_.two_layer) {
    const double g_spreader =
        params_.spreader_to_ambient_conductance +
        params_.vertical_conductance * static_cast<double>(floorplan_.num_cores());
    max_stable_dt_ =
        std::min(max_stable_dt_, params_.spreader_capacitance / g_spreader);
  }
  neighbor_offsets_.reserve(floorplan_.num_cores() + 1);
  neighbor_offsets_.push_back(0);
  for (std::size_t i = 0; i < floorplan_.num_cores(); ++i) {
    const auto& nbrs = floorplan_.neighbors(i);
    neighbor_ids_.insert(neighbor_ids_.end(), nbrs.begin(), nbrs.end());
    neighbor_offsets_.push_back(neighbor_ids_.size());
  }
  next_.resize(floorplan_.num_cores());
  inv_c_ = 1.0 / params_.capacitance;
}

void RcThermalModel::step(std::span<const double> power_w, double dt_seconds) {
  if (power_w.size() != temps_.size()) {
    throw std::invalid_argument("RcThermalModel::step: power size mismatch");
  }
  // Every caller steps with one fixed tick, so the substep split is derived
  // once per distinct dt rather than with two divisions and a ceil a tick.
  if (dt_seconds != step_dt_) {
    substeps_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(dt_seconds / max_stable_dt_)));
    h_ = dt_seconds / static_cast<double>(substeps_);
    step_dt_ = dt_seconds;
  }
  const std::size_t substeps = substeps_;
  const double h = h_;
  const std::size_t n = temps_.size();
  const double g_v = params_.vertical_conductance;
  const double g_l = params_.lateral_conductance;
  const double inv_c = inv_c_;
  const std::size_t* offsets = neighbor_offsets_.data();
  const std::size_t* ids = neighbor_ids_.data();
  for (std::size_t s = 0; s < substeps; ++s) {
    // In two-layer mode, cores sink vertically into the spreader; otherwise
    // directly into ambient.
    const double below = params_.two_layer ? spreader_temp_ : params_.ambient_c;
    double into_spreader = 0.0;
    const double* temps = temps_.data();
    double* next = next_.data();
    for (std::size_t i = 0; i < n; ++i) {
      const double vertical = g_v * (temps[i] - below);
      double flow = power_w[i] - vertical;
      into_spreader += vertical;
      for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
        flow -= g_l * (temps[i] - temps[ids[k]]);
      }
      next[i] = temps[i] + h * flow * inv_c;
    }
    if (params_.two_layer) {
      const double out = params_.spreader_to_ambient_conductance *
                         (spreader_temp_ - params_.ambient_c);
      spreader_temp_ += h * (into_spreader - out) / params_.spreader_capacitance;
    }
    temps_.swap(next_);
  }
}

std::vector<double> RcThermalModel::steady_state(
    std::span<const double> power_w) const {
  if (power_w.size() != temps_.size()) {
    throw std::invalid_argument("RcThermalModel::steady_state: size mismatch");
  }
  const std::size_t cores = temps_.size();
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

double RcThermalModel::max_temperature() const noexcept {
  return *std::max_element(temps_.begin(), temps_.end());
}

void RcThermalModel::reset(double temp_c) {
  std::fill(temps_.begin(), temps_.end(), temp_c);
  spreader_temp_ = params_.two_layer ? temp_c : params_.ambient_c;
}

}  // namespace cpm::thermal
