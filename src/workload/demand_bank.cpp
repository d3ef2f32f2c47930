#include "workload/demand_bank.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "util/rng.h"

namespace cpm::workload {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
// WorkloadInstance::kRampFraction.
constexpr double kRampFraction = 0.3;

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// util::Xoshiro256pp's private irwin_hall21 on one 21-bit field, without
/// an integer->double conversion (SSE2 and AVX2 have none for 64-bit
/// lanes, and every tier runs the same body): 2s - 381 lies in [-381, 381], and 2s in [0, 762] ORed into the
/// mantissa of 2^52 gives the double 2^52 + 2s exactly, so subtracting
/// 2^52 + 381 yields 2s - 381 exactly, +0.0 included.
CPM_ALWAYS_INLINE double irwin_hall21(std::uint64_t field) noexcept {
  const std::uint64_t sum =
      (field & 0x7Fu) + ((field >> 7) & 0x7Fu) + ((field >> 14) & 0x7Fu);
  const double two_sum =
      std::bit_cast<double>(0x4330000000000000ULL | (sum << 1));
  return (two_sum - (0x1.0p52 + 381.0)) * 0x1.0p-7;
}

// The demand sweep: WorkloadInstance::step after its clock advance, on
// every row at once. The ramp lerp and the held demand are both computed
// and one is selected per lane, and the noise runs on every lane (see
// DemandRows for how a row without noise passes through it). For
// GCC to if-convert the selects, each compared or selected value is loaded
// into a local first, and each clamp is std::clamp's compare-select nest,
// so NaN passes through as it does there.
CPM_ALWAYS_INLINE void demand_sweep_body(
    std::size_t n, const double* __restrict time,
    const double* __restrict ramp, const double* __restrict prev_cpi,
    const double* __restrict prev_mem, const double* __restrict prev_act,
    const double* __restrict step_cpi, const double* __restrict step_mem,
    const double* __restrict step_act, const double* __restrict base_cpi,
    const double* __restrict base_mem, const double* __restrict base_act,
    const double* __restrict base_bw, const double* __restrict hold_cpi,
    const double* __restrict hold_mem, const double* __restrict hold_act,
    const double* __restrict hold_bw, const double* __restrict sigma,
    const double* __restrict act_lo, const double* __restrict act_hi,
    const std::uint64_t* __restrict draw_mask,
    std::uint64_t* __restrict rng0, std::uint64_t* __restrict rng1,
    std::uint64_t* __restrict rng2, std::uint64_t* __restrict rng3,
    double* __restrict out_cpi, double* __restrict out_mem,
    double* __restrict out_act, double* __restrict out_bw) noexcept {
  // vectorize: workload.demand
  for (std::size_t g = 0; g < n; ++g) {
    // Phase demand: the ramp lerp inside the ramp window, else the held one.
    const double tv = time[g];
    const double rv = ramp[g];
    const double w = tv / rv;  // 0 -> previous phase, 1 -> current phase
    const double mem_mult = prev_mem[g] + w * step_mem[g];
    const double rc = base_cpi[g] * (prev_cpi[g] + w * step_cpi[g]);
    const double rm = base_mem[g] * mem_mult;
    const double ra = base_act[g] * (prev_act[g] + w * step_act[g]);
    const double rb = base_bw[g] * mem_mult;
    const double hcv = hold_cpi[g];
    const double hmv = hold_mem[g];
    const double hav = hold_act[g];
    const double hbv = hold_bw[g];
    double cpi = rv > tv ? rc : hcv;
    double mem = rv > tv ? rm : hmv;
    double act = rv > tv ? ra : hav;
    double bw = rv > tv ? rb : hbv;

    // One xoshiro256++ step; a row with a zero mask keeps its state.
    const std::uint64_t s0 = rng0[g];
    const std::uint64_t s1 = rng1[g];
    const std::uint64_t s2 = rng2[g];
    const std::uint64_t s3 = rng3[g];
    const std::uint64_t mask = draw_mask[g];
    const std::uint64_t bits = rotl(s0 + s3, 23) + s0;
    const std::uint64_t t = s1 << 17;
    const std::uint64_t n2 = s2 ^ s0;
    const std::uint64_t n3 = s3 ^ s1;
    const std::uint64_t n1 = s1 ^ n2;
    const std::uint64_t n0 = s0 ^ n3;
    rng0[g] = s0 ^ ((s0 ^ n0) & mask);
    rng1[g] = s1 ^ ((s1 ^ n1) & mask);
    rng2[g] = s2 ^ ((s2 ^ (n2 ^ t)) & mask);
    rng3[g] = s3 ^ ((s3 ^ rotl(n3, 45)) & mask);

    // Xoshiro256pp::fast_normal3 and WorkloadInstance::step's clamps.
    const double f1 = irwin_hall21(bits & 0x1FFFFFu);
    const double f2 = irwin_hall21((bits >> 21) & 0x1FFFFFu);
    const double f3 = irwin_hall21((bits >> 42) & 0x1FFFFFu);
    const double sg = sigma[g];
    const double u1 = 1.0 + sg * f1;
    const double u2 = 1.0 + sg * f2;
    const double u3 = 1.0 + 0.5 * sg * f3;
    const double k1 = u1 < 0.5 ? 0.5 : (1.5 < u1 ? 1.5 : u1);
    const double k2 = u2 < 0.5 ? 0.5 : (1.5 < u2 ? 1.5 : u2);
    const double k3 = u3 < 0.7 ? 0.7 : (1.3 < u3 ? 1.3 : u3);
    cpi *= k1;
    mem *= k2;
    bw *= k2;
    const double av = act * k3;
    const double lo = act_lo[g];
    const double hi = act_hi[g];
    act = av < lo ? lo : (hi < av ? hi : av);
    out_cpi[g] = cpi;
    out_mem[g] = mem;
    out_act[g] = act;
    out_bw[g] = bw;
  }
}

CPM_ALWAYS_INLINE void demand_sweep_rows(std::size_t n, const DemandRows& rows,
                                         const DemandOutputs& out) noexcept {
  using R = DemandRows;
  double* const f = rows.real;
  std::uint64_t* const u = rows.word;
  const std::size_t s = rows.stride;
  demand_sweep_body(
      n, f + R::kTime * s, f + R::kRamp * s,
      f + R::kPrevCpi * s, f + R::kPrevMem * s, f + R::kPrevAct * s,
      f + R::kStepCpi * s, f + R::kStepMem * s, f + R::kStepAct * s,
      f + R::kBaseCpi * s, f + R::kBaseMem * s, f + R::kBaseAct * s,
      f + R::kBaseBw * s, f + R::kHoldCpi * s, f + R::kHoldMem * s,
      f + R::kHoldAct * s, f + R::kHoldBw * s, f + R::kSigma * s,
      f + R::kActLo * s, f + R::kActHi * s, u + R::kDrawMask * s,
      u + R::kRng0 * s, u + R::kRng1 * s, u + R::kRng2 * s, u + R::kRng3 * s,
      out.cpi, out.mem_stall_ns, out.activity, out.bandwidth_demand);
}

// The clock pass: WorkloadInstance::advance_clock on every row, and whether
// any clock ran past its phase. The roll flag is a 64-bit OR of a selected
// double's bits: SSE2 can select doubles on the double compare and OR the
// bits, but has no select from a double compare to a 64-bit integer, and a
// bool reduction does not vectorize at all. A NaN phase length (no phases)
// never compares true.
CPM_ALWAYS_INLINE bool demand_clock_body(std::size_t n, double dt_ms,
                                         double* __restrict time,
                                         const double* __restrict len) noexcept {
  std::uint64_t rolled = 0;
  // vectorize: workload.clock
  for (std::size_t r = 0; r < n; ++r) {
    const double t = time[r] + dt_ms;
    time[r] = t;
    rolled |= std::bit_cast<std::uint64_t>(t >= len[r] ? 1.0 : 0.0);
  }
  return rolled != 0;
}

}  // namespace

namespace kernels {

bool demand_clock(util::Isa isa, std::size_t n, units::Milliseconds dt,
                  double* time, const double* len) noexcept {
  return util::dispatch_kernel<&demand_clock_body>(isa, n, dt.value(), time,
                                                   len);
}

void demand_sweep(util::Isa isa, std::size_t n, const DemandRows& rows,
                  const DemandOutputs& out) noexcept {
  util::dispatch_kernel<&demand_sweep_rows>(isa, n, rows, out);
}

}  // namespace kernels

void DemandBank::add(const BenchmarkProfile& profile, std::uint64_t seed,
                     units::Milliseconds phase_offset) {
  using R = DemandRows;
  const std::size_t r = size();
  if (r == stride_) {
    // Grow every column: re-lay both arrays at twice the row capacity.
    const std::size_t stride = stride_ == 0 ? 4 : 2 * stride_;
    std::vector<double> real(R::kRealColumns * stride, 0.0);
    std::vector<std::uint64_t> word(R::kWordColumns * stride, 0);
    for (std::size_t c = 0; c < R::kRealColumns; ++c) {
      std::copy_n(real_.begin() + static_cast<std::ptrdiff_t>(c * stride_), r,
                  real.begin() + static_cast<std::ptrdiff_t>(c * stride));
    }
    for (std::size_t c = 0; c < R::kWordColumns; ++c) {
      std::copy_n(word_.begin() + static_cast<std::ptrdiff_t>(c * stride_), r,
                  word.begin() + static_cast<std::ptrdiff_t>(c * stride));
    }
    real_ = std::move(real);
    word_ = std::move(word);
    stride_ = stride;
  }
  profile_.push_back(&profile);
  phase_.push_back(0);
  at(R::kTime, r) = 0.0;
  at(R::kLen, r) = kNaN;
  at(R::kRamp, r) = -kInf;
  at(R::kBaseCpi, r) = profile.cpi_base;
  at(R::kBaseMem, r) = profile.mem_stall_ns;
  at(R::kBaseAct, r) = profile.activity_active;
  at(R::kBaseBw, r) = profile.bandwidth_demand;
  // WorkloadInstance::step draws noise only when sigma > 0 (not for a
  // zero, negative or NaN sigma).
  const bool noisy = profile.noise_sigma > 0.0;
  at(R::kSigma, r) = noisy ? profile.noise_sigma : 0.0;
  at(R::kActLo, r) = noisy ? 0.05 : -kInf;
  at(R::kActHi, r) = noisy ? 1.2 : kInf;
  at(R::kDrawMask, r) = noisy ? ~std::uint64_t{0} : 0;
  const util::Xoshiro256pp rng(seed);
  at(R::kRng0, r) = rng.state()[0];
  at(R::kRng1, r) = rng.state()[1];
  at(R::kRng2, r) = rng.state()[2];
  at(R::kRng3, r) = rng.state()[3];

  // WorkloadInstance's constructor: enter phase 0, then advance the clock
  // by the offset.
  if (!profile.phases.empty()) {
    at(R::kLen, r) = profile.phases[0].duration_ms * profile.phase_time_scale;
    if (profile.phases.size() > 1) {
      at(R::kRamp, r) = kRampFraction * at(R::kLen, r);
    }
  }
  load_phase(r);
  at(R::kTime, r) +=
      units::max(units::Milliseconds{0.0}, phase_offset).value();
  if (at(R::kTime, r) >= at(R::kLen, r)) roll(r);
}

void DemandBank::step(double dt_seconds, const DemandOutputs& out,
                      util::Isa isa) noexcept {
  const std::size_t n = size();
  const units::Milliseconds dt = units::Seconds{dt_seconds}.to_milliseconds();
  double* time = real_.data() + DemandRows::kTime * stride_;
  const double* len = real_.data() + DemandRows::kLen * stride_;
  // The clock pass, then the rare roll-over fix-up, then the sweep.
  if (kernels::demand_clock(isa, n, dt, time, len)) {
    for (std::size_t r = 0; r < n; ++r) {
      if (time[r] >= len[r]) roll(r);
    }
  }
  kernels::demand_sweep(isa, n, {real_.data(), word_.data(), stride_}, out);
}

void DemandBank::roll(std::size_t r) noexcept {
  using R = DemandRows;
  const auto& phases = profile_[r]->phases;
  while (at(R::kTime, r) >= at(R::kLen, r)) {
    at(R::kTime, r) -= at(R::kLen, r);
    if (++phase_[r] == phases.size()) phase_[r] = 0;
    at(R::kLen, r) =
        phases[phase_[r]].duration_ms * profile_[r]->phase_time_scale;
    if (phases.size() > 1) at(R::kRamp, r) = kRampFraction * at(R::kLen, r);
  }
  load_phase(r);
}

void DemandBank::load_phase(std::size_t r) noexcept {
  using R = DemandRows;
  const auto& phases = profile_[r]->phases;
  // The held demand is WorkloadInstance::phase_demand(): multipliers of 1
  // without phases.
  Phase cur;
  if (!phases.empty()) cur = phases[phase_[r]];
  at(R::kHoldCpi, r) = at(R::kBaseCpi, r) * cur.cpi_mult;
  at(R::kHoldMem, r) = at(R::kBaseMem, r) * cur.mem_mult;
  at(R::kHoldAct, r) = at(R::kBaseAct, r) * cur.activity_mult;
  at(R::kHoldBw, r) = at(R::kBaseBw, r) * cur.mem_mult;
  // The ramp lerp's end points (WorkloadInstance::ramp_demand()). Only a
  // profile with two or more phases has a ramp window.
  if (phases.size() < 2) return;
  const Phase& prev = phases[(phase_[r] == 0 ? phases.size() : phase_[r]) - 1];
  at(R::kPrevCpi, r) = prev.cpi_mult;
  at(R::kPrevMem, r) = prev.mem_mult;
  at(R::kPrevAct, r) = prev.activity_mult;
  at(R::kStepCpi, r) = cur.cpi_mult - prev.cpi_mult;
  at(R::kStepMem, r) = cur.mem_mult - prev.mem_mult;
  at(R::kStepAct, r) = cur.activity_mult - prev.activity_mult;
}

void DemandBank::swap_rows(std::size_t a, std::size_t b) noexcept {
  std::swap(profile_[a], profile_[b]);
  std::swap(phase_[a], phase_[b]);
  for (std::size_t c = 0; c < DemandRows::kRealColumns; ++c) {
    std::swap(real_[c * stride_ + a], real_[c * stride_ + b]);
  }
  for (std::size_t c = 0; c < DemandRows::kWordColumns; ++c) {
    std::swap(word_[c * stride_ + a], word_[c * stride_ + b]);
  }
}

}  // namespace cpm::workload
