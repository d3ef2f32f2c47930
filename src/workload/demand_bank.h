// The whole chip's workload demand state as structure-of-arrays: one row per
// core, stepped by one flat pass instead of one WorkloadInstance::step per
// core. sim::Chip owns one and runs it as pass 1 of the batched tick.
//
// A row starts exactly as WorkloadInstance(profile, seed, phase_offset) and
// each step() writes, for every row, the demand that instance's step() would
// return, bit for bit (tests/workload/test_demand_bank.cpp holds the two
// together). A tick is three passes:
//   1. the clock pass (`// vectorize: workload.clock`): every phase clock
//      advances by dt;
//   2. the roll-over fix-up: scalar, and only when some clock ran past its
//      phase, which refreshes that row's phase length, ramp window,
//      multipliers and held demand;
//   3. the demand sweep (`// vectorize: workload.demand`): the ramp lerp or
//      the held phase demand, then the xoshiro256++ draw and the clamped
//      multiplicative noise, with no branch on any row's state.
// All columns live in two allocations (DemandRows), so a tick hands the
// sweep three words instead of a pointer per column.
// WorkloadInstance stays as the per-object reference: sim::CoreModel steps
// one (the test tree's reference chip is built from those), and the tests
// and the benchmark time one instance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/isa.h"
#include "util/units.h"
#include "workload/profile.h"

namespace cpm::workload {

/// The bank's state: `real` holds kRealColumns double columns and `word`
/// kWordColumns uint64 columns; column c of each starts at c * stride. The
/// sweep writes the generator columns and reads the rest.
struct DemandRows {
  enum Real : std::size_t {
    // Phase clock, phase length (NaN without phases: never rolls) and ramp
    // window (-inf with fewer than two phases); the sweep takes the ramp
    // lerp while time < ramp. The clock pass owns the first two.
    kTime,
    kLen,
    kRamp,
    // Ramp lerp: base * (prev + (time / ramp) * step), step = cur - prev.
    kPrevCpi,
    kPrevMem,
    kPrevAct,
    kStepCpi,
    kStepMem,
    kStepAct,
    kBaseCpi,
    kBaseMem,
    kBaseAct,
    kBaseBw,
    // The current phase's demand outside the ramp window.
    kHoldCpi,
    kHoldMem,
    kHoldAct,
    kHoldBw,
    // Noise. A row without noise stores sigma 0, activity clamps of -inf /
    // +inf and a zero draw mask, which leave its demand and its generator
    // bit-unchanged.
    kSigma,
    kActLo,
    kActHi,
    kRealColumns
  };
  enum Word : std::size_t {
    kDrawMask,
    kRng0,
    kRng1,
    kRng2,
    kRng3,
    kWordColumns
  };

  double* real;
  std::uint64_t* word;
  std::size_t stride;
};

/// Where the sweep writes each row's demand (arrays of at least n).
struct DemandOutputs {
  double* cpi;
  double* mem_stall_ns;
  double* activity;
  double* bandwidth_demand;
};

namespace kernels {

/// The clock pass (pass 1 above) over `n` rows at `isa` (every ISA gives the
/// same bits): adds dt to every time[r] and returns whether any reached its
/// len[r]. `time` must not overlap `len`.
bool demand_clock(util::Isa isa, std::size_t n, units::Milliseconds dt,
                  double* time, const double* len) noexcept;

/// The demand sweep (pass 3 above) over the first `n` rows of `rows` at
/// `isa`, writing each row's demand to `out`. Every ISA gives the same bits.
void demand_sweep(util::Isa isa, std::size_t n, const DemandRows& rows,
                  const DemandOutputs& out) noexcept;

}  // namespace kernels

class DemandBank {
 public:
  /// Appends a row that starts as WorkloadInstance(profile, seed,
  /// phase_offset) does. `profile` must outlive the bank.
  void add(const BenchmarkProfile& profile, std::uint64_t seed,
           units::Milliseconds phase_offset = units::Milliseconds{0.0});

  std::size_t size() const noexcept { return profile_.size(); }

  /// Advances every row by dt seconds and writes its demand to `out`,
  /// using the demand sweep at `isa`.
  void step(double dt_seconds, const DemandOutputs& out,
            util::Isa isa = util::host_isa()) noexcept;

  /// Swaps two rows' whole state (a thread migration).
  void swap_rows(std::size_t a, std::size_t b) noexcept;

  const BenchmarkProfile& profile(std::size_t row) const noexcept {
    return *profile_[row];
  }
  std::size_t phase_index(std::size_t row) const noexcept {
    return phase_[row];
  }

 private:
  double& at(DemandRows::Real column, std::size_t r) noexcept {
    return real_[column * stride_ + r];
  }
  std::uint64_t& at(DemandRows::Word column, std::size_t r) noexcept {
    return word_[column * stride_ + r];
  }
  /// Moves row r past every phase its clock has run out of, as
  /// WorkloadInstance::roll_phases does, and refreshes its phase columns.
  void roll(std::size_t r) noexcept;
  /// Refreshes row r's multiplier and held-demand columns for its phase.
  void load_phase(std::size_t r) noexcept;

  std::vector<const BenchmarkProfile*> profile_;
  std::vector<std::size_t> phase_;
  std::size_t stride_ = 0;  // row capacity of each column
  std::vector<double> real_;
  std::vector<std::uint64_t> word_;
};

}  // namespace cpm::workload
