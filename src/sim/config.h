// CMP configuration per paper Table I, plus simulator cadence parameters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/dvfs.h"

namespace cpm::sim {

struct CacheConfig {
  std::string name;
  std::size_t size_kb = 16;
  std::size_t ways = 2;
  std::size_t block_bytes = 64;
  std::size_t access_cycles = 1;

  bool operator==(const CacheConfig&) const = default;
};

/// Table I: core, memory, CMP configuration. The cache structure feeds the
/// documentation/Table-I bench; the analytic core model consumes the
/// aggregate memory parameters (latency, bandwidth).
struct CmpConfig {
  // -- topology -------------------------------------------------------------
  std::size_t num_islands = 4;
  std::size_t cores_per_island = 2;

  // -- core (4-wide OoO x86, 90 nm, 2 GHz nominal) ---------------------------
  std::size_t fetch_width = 4;
  std::size_t issue_width = 2;
  std::size_t commit_width = 2;
  std::size_t register_file_entries = 80;
  std::size_t scheduler_fp_entries = 20;
  std::size_t scheduler_int_entries = 12;
  CacheConfig l1d{"L1D", 16, 2, 64, 1};
  CacheConfig l1i{"L1I", 16, 2, 64, 1};
  CacheConfig l2{"L2 (shared)", 512, 16, 64, 12};  // per-core 512 KB slice
  std::size_t memory_latency_cycles = 200;

  // -- DVFS ------------------------------------------------------------------
  DvfsTable dvfs = DvfsTable::pentium_m();
  /// Fraction of controller-interval CPU time lost per DVFS transition
  /// (paper: 0.5 %, conservative vs. on-chip regulators).
  double dvfs_overhead_fraction = 0.005;

  // -- controller cadence ----------------------------------------------------
  double gpm_interval_s = 5e-3;   // T_global: 5 ms
  double pic_interval_s = 0.5e-3; // T_local: 0.5 ms
  /// Simulation ticks per PIC interval (micro-model integration step).
  std::size_t ticks_per_pic_interval = 5;

  // -- shared memory contention ----------------------------------------------
  /// Aggregate memory bandwidth capacity in (BIPS x bandwidth_demand) units.
  double memory_bandwidth_capacity = 4.0;
  /// Sensitivity of memory stall time to congestion (m_eff = m*(1+gamma*c)).
  double contention_gamma = 0.5;

  // -- power scale -----------------------------------------------------------
  /// Base effective switched capacitance: watts per (V^2 * GHz) at activity 1.
  double ceff_base_w_per_v2ghz = 3.5;
  /// Leakage design constant: watts per volt per core at T0, leak_mult 1.
  double leakage_w_per_v = 1.2;
  /// Leakage-temperature exponent beta: P_leak ~ exp(beta*(T-T0)).
  double leakage_temp_beta = 0.012;
  double leakage_ref_temp_c = 55.0;

  // -- derived ---------------------------------------------------------------
  std::size_t total_cores() const noexcept {
    return num_islands * cores_per_island;
  }
  double tick_seconds() const noexcept {
    return pic_interval_s / static_cast<double>(ticks_per_pic_interval);
  }
  /// Typed views of the controller cadence (the raw `_s` fields above stay
  /// plain doubles -- they are bulk config data; see util/units.h).
  units::Seconds gpm_interval() const noexcept {
    return units::Seconds{gpm_interval_s};
  }
  units::Seconds pic_interval() const noexcept {
    return units::Seconds{pic_interval_s};
  }
  units::Seconds tick_interval() const noexcept {
    return units::Seconds{tick_seconds()};
  }
  /// Leakage design constant as its dimensional type (watts per volt).
  units::WattsPerVolt leakage_design() const noexcept {
    return units::WattsPerVolt{leakage_w_per_v};
  }
  std::size_t pic_invocations_per_gpm() const noexcept {
    return static_cast<std::size_t>(gpm_interval_s / pic_interval_s + 0.5);
  }

  /// 8-core default (Table I): 4 islands x 2 cores.
  static CmpConfig default_8core();
  /// 16-core scaling config: 4 islands x 4 cores.
  static CmpConfig scale_16core();
  /// 32-core scaling config: 8 islands x 4 cores.
  static CmpConfig scale_32core();
  /// 64-core scaling config: 16 islands x 4 cores (beyond the paper's
  /// evaluation; exercises the architecture's scaling claim further).
  static CmpConfig scale_64core();
  /// Thermal-study config (Fig. 18): 8 islands x 1 core.
  static CmpConfig thermal_8x1();

  bool operator==(const CmpConfig&) const = default;
};

}  // namespace cpm::sim
