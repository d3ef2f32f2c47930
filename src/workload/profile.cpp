#include "workload/profile.h"

#include <array>
#include <stdexcept>
#include <string>

namespace cpm::workload {

namespace {

// Phase programs. Durations are chosen against the paper's controller
// cadence (PIC 0.5 ms, GPM 5 ms): phases of a few milliseconds make island
// power demand drift across GPM intervals (Figs. 7-8) while staying roughly
// stationary within one PIC interval.

constexpr std::array<Phase, 4> kBlackscholesPhases{{
    {1.00, 1.0, 6.0, 1.05},   // PDE sweep: steady compute
    {0.85, 1.4, 2.0, 0.80},   // option batch load
    {1.10, 0.8, 5.0, 1.15},   // dense math
    {0.95, 1.2, 3.0, 0.90},
}};

constexpr std::array<Phase, 5> kBodytrackPhases{{
    {1.00, 1.0, 4.0, 1.00},   // particle weighting
    {1.25, 1.6, 2.5, 0.75},   // image gradient pass
    {0.90, 0.9, 4.5, 1.15},   // likelihood evaluation
    {1.10, 1.3, 2.0, 0.85},
    {0.95, 1.0, 3.5, 1.00},
}};

constexpr std::array<Phase, 4> kFacesimPhases{{
    {1.00, 1.00, 5.0, 0.95},  // sparse solve: memory heavy
    {0.90, 1.35, 3.0, 0.70},
    {1.05, 0.80, 4.0, 1.15},  // element assembly
    {0.95, 1.20, 3.5, 0.85},
}};

constexpr std::array<Phase, 4> kFreqminePhases{{
    {1.00, 1.0, 7.0, 1.05},   // FP-tree growth
    {1.15, 1.5, 2.0, 0.75},   // tree rebuild: pointer chasing
    {0.90, 0.9, 5.0, 1.10},
    {1.05, 1.2, 3.0, 0.90},
}};

constexpr std::array<Phase, 5> kX264Phases{{
    {1.00, 1.0, 3.0, 1.10},   // motion estimation
    {0.80, 0.8, 2.0, 1.25},   // DCT/quant: dense SIMD-ish
    {1.20, 1.4, 2.5, 0.75},   // reference-frame fetch
    {0.90, 1.0, 3.5, 0.95},
    {1.10, 1.1, 2.0, 1.05},
}};

constexpr std::array<Phase, 4> kVipsPhases{{
    {1.00, 1.00, 4.0, 1.00},  // image tile streaming
    {0.95, 1.40, 3.0, 0.75},
    {1.05, 0.85, 4.5, 1.20},
    {0.90, 1.25, 2.5, 0.85},
}};

constexpr std::array<Phase, 4> kStreamclusterPhases{{
    {1.00, 1.00, 5.0, 0.95},  // distance computation over stream
    {0.95, 1.50, 2.5, 0.70},  // new block arrival
    {1.05, 0.90, 4.0, 1.15},
    {1.00, 1.25, 3.0, 0.90},
}};

constexpr std::array<Phase, 4> kCannealPhases{{
    {1.00, 1.00, 4.0, 0.90},  // random swaps: cache hostile
    {1.05, 1.45, 3.0, 0.70},
    {0.95, 0.85, 3.5, 1.10},  // local refinement
    {1.00, 1.20, 2.5, 0.85},
}};

// Remaining PARSEC benchmarks (not in the paper's Table II selection).
constexpr std::array<Phase, 3> kSwaptionsPhases{{
    {1.00, 1.0, 6.0, 1.05},   // Monte-Carlo sweep: steady fp compute
    {0.90, 1.2, 2.5, 0.90},
    {1.10, 0.9, 4.5, 1.10},
}};
constexpr std::array<Phase, 4> kRaytracePhases{{
    {1.00, 1.0, 4.0, 1.05},   // primary rays
    {1.15, 1.4, 2.5, 0.85},   // BVH traversal bursts
    {0.90, 0.9, 4.0, 1.10},   // shading
    {1.00, 1.1, 3.0, 0.95},
}};
constexpr std::array<Phase, 4> kFluidanimatePhases{{
    {1.00, 1.00, 4.0, 1.00},  // neighbour search
    {0.90, 1.35, 3.0, 0.80},  // particle reshuffle
    {1.05, 0.85, 4.0, 1.10},  // force computation
    {0.95, 1.15, 3.0, 0.90},
}};
constexpr std::array<Phase, 4> kFerretPhases{{
    {1.00, 1.00, 4.5, 0.95},  // feature extraction
    {0.95, 1.40, 3.0, 0.75},  // index probing
    {1.05, 0.90, 3.5, 1.10},  // ranking
    {1.00, 1.20, 2.5, 0.90},
}};
constexpr std::array<Phase, 4> kDedupPhases{{
    {1.00, 1.00, 4.0, 1.00},  // chunking
    {1.05, 1.45, 3.0, 0.80},  // hash-table probing
    {0.90, 0.90, 3.5, 1.10},  // compression
    {1.00, 1.20, 2.5, 0.90},
}};

constexpr std::array<BenchmarkProfile, 5> kParsecExtra{{
    {"swaptions", "swapt", WorkloadClass::kCpuBound,
     1.10, 0.06, 0.06, 0.95, 0.10, 1.05, 0.012, kSwaptionsPhases},
    {"raytrace", "rtrace", WorkloadClass::kCpuBound,
     1.30, 0.22, 0.20, 0.90, 0.10, 1.10, 0.018, kRaytracePhases},
    {"fluidanimate", "fluid", WorkloadClass::kMemoryBound,
     1.05, 0.70, 0.50, 0.95, 0.11, 1.30, 0.015, kFluidanimatePhases},
    {"ferret", "ferret", WorkloadClass::kMemoryBound,
     1.10, 1.00, 0.60, 0.88, 0.12, 1.20, 0.015, kFerretPhases},
    {"dedup", "dedup", WorkloadClass::kMemoryBound,
     1.00, 1.20, 0.65, 0.92, 0.12, 1.15, 0.018, kDedupPhases},
}};

// SPEC-like CPU-bound applications for the thermal study (all 'C' class).
constexpr std::array<Phase, 3> kMesaPhases{{
    {1.00, 1.0, 5.0, 1.05},
    {1.15, 1.2, 3.0, 0.85},
    {0.90, 0.9, 4.0, 1.10},
}};
constexpr std::array<Phase, 3> kBzipPhases{{
    {1.00, 1.0, 4.0, 1.00},
    {0.85, 1.3, 2.5, 0.75},
    {1.10, 0.9, 4.5, 1.10},
}};
constexpr std::array<Phase, 3> kGccPhases{{
    {1.00, 1.0, 3.5, 0.95},
    {1.20, 1.4, 2.0, 0.75},
    {0.90, 1.0, 4.0, 1.10},
}};
constexpr std::array<Phase, 3> kSixtrackPhases{{
    {1.00, 1.0, 6.0, 1.05},
    {1.05, 1.1, 2.5, 0.90},
    {0.95, 0.9, 4.5, 1.10},
}};

// Calibration notes (paper Fig. 6): the product ceff_scale * (activity_active
// - activity_idle) sets the power-vs-utilization slope; values below spread
// the slopes over roughly the 2.3x-4.5x range the paper reports, with vips
// and canneal at the top and blackscholes near the bottom.
constexpr std::array<BenchmarkProfile, 8> kParsec{{
    {"blackscholes", "bschls", WorkloadClass::kCpuBound,
     /*cpi_base=*/1.20, /*mem_stall_ns=*/0.08, /*bandwidth_demand=*/0.08,
     /*activity_active=*/0.90, /*activity_idle=*/0.10, /*ceff_scale=*/0.95,
     /*noise_sigma=*/0.012, kBlackscholesPhases},
    {"bodytrack", "btrack", WorkloadClass::kCpuBound,
     1.35, 0.14, 0.15, 0.95, 0.10, 1.05, 0.018, kBodytrackPhases},
    {"facesim", "fsim", WorkloadClass::kMemoryBound,
     1.10, 0.95, 0.55, 0.92, 0.12, 1.25, 0.015, kFacesimPhases},
    {"freqmine", "fmine", WorkloadClass::kCpuBound,
     1.45, 0.20, 0.18, 0.88, 0.10, 1.10, 0.015, kFreqminePhases},
    {"x264", "x264", WorkloadClass::kCpuBound,
     1.15, 0.12, 0.20, 1.00, 0.11, 1.15, 0.020, kX264Phases},
    {"vips", "vips", WorkloadClass::kMemoryBound,
     1.05, 0.85, 0.60, 1.00, 0.10, 1.60, 0.015, kVipsPhases},
    {"streamcluster", "sclust", WorkloadClass::kMemoryBound,
     1.00, 1.10, 0.65, 0.85, 0.12, 1.00, 0.015, kStreamclusterPhases},
    {"canneal", "canneal", WorkloadClass::kMemoryBound,
     1.00, 1.50, 0.70, 0.90, 0.12, 1.45, 0.018, kCannealPhases},
}};

constexpr std::array<BenchmarkProfile, 4> kSpec{{
    {"mesa", "mesa", WorkloadClass::kCpuBound,
     1.10, 0.10, 0.10, 0.95, 0.10, 1.10, 0.015, kMesaPhases},
    {"bzip", "bzip", WorkloadClass::kCpuBound,
     1.30, 0.18, 0.15, 0.90, 0.10, 1.00, 0.015, kBzipPhases},
    {"gcc", "gcc", WorkloadClass::kCpuBound,
     1.50, 0.25, 0.20, 0.88, 0.10, 1.05, 0.018, kGccPhases},
    {"sixtrack", "sixtrack", WorkloadClass::kCpuBound,
     1.05, 0.08, 0.08, 1.00, 0.10, 1.20, 0.012, kSixtrackPhases},
}};

struct NamedMix {
  std::string_view name;
  InstructionMix mix;
};

// Fractions in field order: int_alu, fp_alu, load, store, branch.
constexpr std::array<NamedMix, 17> kInstructionMixes{{
    {"blackscholes", {0.25, 0.45, 0.20, 0.05, 0.05}},
    {"bodytrack", {0.30, 0.30, 0.25, 0.08, 0.07}},
    {"facesim", {0.25, 0.30, 0.30, 0.10, 0.05}},
    {"freqmine", {0.40, 0.05, 0.30, 0.10, 0.15}},
    {"x264", {0.35, 0.20, 0.25, 0.12, 0.08}},
    {"vips", {0.30, 0.15, 0.30, 0.20, 0.05}},
    {"streamcluster", {0.30, 0.15, 0.35, 0.10, 0.10}},
    {"canneal", {0.30, 0.05, 0.40, 0.15, 0.10}},
    {"swaptions", {0.25, 0.50, 0.17, 0.05, 0.03}},
    {"raytrace", {0.30, 0.30, 0.25, 0.05, 0.10}},
    {"fluidanimate", {0.28, 0.27, 0.28, 0.12, 0.05}},
    {"ferret", {0.32, 0.18, 0.32, 0.08, 0.10}},
    {"dedup", {0.40, 0.02, 0.33, 0.15, 0.10}},
    {"mesa", {0.30, 0.35, 0.22, 0.08, 0.05}},
    {"bzip", {0.45, 0.02, 0.30, 0.13, 0.10}},
    {"gcc", {0.42, 0.03, 0.28, 0.12, 0.15}},
    {"sixtrack", {0.25, 0.50, 0.17, 0.05, 0.03}},
}};

}  // namespace

std::span<const BenchmarkProfile> parsec_profiles() { return kParsec; }
std::span<const BenchmarkProfile> spec_profiles() { return kSpec; }
std::span<const BenchmarkProfile> extra_parsec_profiles() {
  return kParsecExtra;
}

const BenchmarkProfile& find_profile(std::string_view name) {
  for (const auto& p : kParsec) {
    if (p.name == name || p.short_name == name) return p;
  }
  for (const auto& p : kSpec) {
    if (p.name == name || p.short_name == name) return p;
  }
  for (const auto& p : kParsecExtra) {
    if (p.name == name || p.short_name == name) return p;
  }
  throw std::invalid_argument("unknown benchmark profile: " +
                              std::string(name));
}

const InstructionMix& instruction_mix(std::string_view profile_name) {
  for (const auto& entry : kInstructionMixes) {
    if (entry.name == profile_name) return entry.mix;
  }
  throw std::invalid_argument("instruction_mix: unknown benchmark " +
                              std::string(profile_name));
}

}  // namespace cpm::workload
