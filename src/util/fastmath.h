// Branch-free double-precision exp() for flat array sweeps.
//
// The leakage kernel evaluates exp(beta * (T - T0)) for every core every
// tick; libm's exp is correctly rounded but scalar and call-heavy, which
// makes it the single largest term in the whole-chip power sweep. exp_fast
// trades the last two digits (~1e-11 relative error on the simulator's
// operating range) for straight-line arithmetic: two min/max clamps, adds,
// multiplies and one 64-bit shift, with no integer compare or convert, so
// GCC vectorizes the power sweep that calls it (see docs/SIMULATOR.md,
// "Kernels").
//
// Deterministic and bit-portable across IEEE-754 platforms: the reduction
// and polynomial use only +, *, and bit operations in a fixed order (no
// libm, and no FMA contraction: every build pins -ffp-contract=off), so
// results are identical across builds and kernel tiers of the same source.
#pragma once

#include <bit>
#include <cstdint>

namespace cpm::util {

/// exp(x) with ~1e-11 relative accuracy on [-708, 709]. Outside that range
/// the argument saturates: exp_fast(x) is exp_fast(-708) ~ 3.3e-308 below
/// it and exp_fast(709) ~ 8.2e307 above it, finite and positive, never 0
/// or infinity. NaN propagates. Intended for physical-model kernels
/// (leakage-temperature feedback) where the argument is O(1); use std::exp
/// where correctly-rounded results matter.
inline double exp_fast(double x) noexcept {
  // Saturate first, so 2^k below is always a normal double (k stays in
  // [-1022, 1023]). Written as compare-selects that map onto minsd/maxsd;
  // a NaN fails both compares and passes through.
  x = x < -708.0 ? -708.0 : x;
  x = x > 709.0 ? 709.0 : x;
  // Round x/ln2 to the nearest integer with the shift trick: adding
  // 1.5*2^52 forces the fraction out of a double in round-to-nearest mode,
  // leaving the integer k in the low mantissa bits; subtracting it again
  // gives k as an exact double.
  constexpr double kLog2e = 1.4426950408889634074;
  constexpr double kShift = 6755399441055744.0;  // 1.5 * 2^52
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  const double kd = (x * kLog2e + kShift) - kShift;
  // r = x - k*ln2 in two pieces; |r| <= 0.3466.
  const double r = (x - kd * kLn2Hi) - kd * kLn2Lo;
  // Degree-9 Taylor polynomial of exp on the reduced range: the truncation
  // error r^10/10! is < 7e-12 relative at the interval edge.
  double p = 1.0 / 362880.0;
  p = p * r + 1.0 / 40320.0;
  p = p * r + 1.0 / 5040.0;
  p = p * r + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 0.5;
  p = p * r + 1.0;
  p = p * r + 1.0;
  // Scale by 2^k via direct exponent construction: kd + (kShift + 1023)
  // holds the biased exponent k + 1023 (in [1, 2046]) in its low mantissa
  // bits, and shifting those 12 bits to the top builds 2^k with a zero sign
  // and mantissa.
  const double biased = kd + (kShift + 1023.0);
  const double scale =
      std::bit_cast<double>(std::bit_cast<std::uint64_t>(biased) << 52);
  return p * scale;
}

}  // namespace cpm::util
