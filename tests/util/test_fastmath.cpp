#include "util/fastmath.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/rng.h"

namespace cpm::util {
namespace {

/// The previous exp_fast, kept as the bit-level reference: it extracts k
/// as a sign-extended int64 and clamps it to [-1022, 1023] with branches
/// (which is what kept the power sweep from vectorizing). The rewrite must
/// agree with it bit for bit wherever this clamp is inactive.
double exp_fast_reference(double x) {
  constexpr double kLog2e = 1.4426950408889634074;
  constexpr double kShift = 6755399441055744.0;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  double kd = x * kLog2e + kShift;
  std::int64_t k =
      static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(kd) << 13) >> 13;
  kd -= kShift;
  if (k > 1023) k = 1023;
  if (k < -1022) k = -1022;
  const double r = (x - kd * kLn2Hi) - kd * kLn2Lo;
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
  const double scale =
      std::bit_cast<double>(static_cast<std::uint64_t>(k + 1023) << 52);
  return p * scale;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(ExpFast, BitIdenticalToReferenceOnDenseGrid) {
  // Step 1/1024 over the whole unsaturated range, which crosses every
  // rounding boundary of k = round(x / ln2).
  for (double x = -708.0; x <= 709.0; x += 1.0 / 1024.0) {
    ASSERT_EQ(bits(exp_fast(x)), bits(exp_fast_reference(x))) << "x=" << x;
  }
  // The same near the leakage kernel's O(1) arguments, far denser.
  for (double x = -2.0; x <= 2.0; x += 1.0 / 65536.0) {
    ASSERT_EQ(bits(exp_fast(x)), bits(exp_fast_reference(x))) << "x=" << x;
  }
  for (const double x : {-708.0, -0.0, 0.0, 709.0,
                         std::numeric_limits<double>::denorm_min(),
                         -std::numeric_limits<double>::denorm_min()}) {
    EXPECT_EQ(bits(exp_fast(x)), bits(exp_fast_reference(x))) << "x=" << x;
  }
}

TEST(ExpFast, BitIdenticalToReferenceOnRandomArguments) {
  Xoshiro256pp rng(20100913);
  for (int i = 0; i < 1'000'000; ++i) {
    const double x = rng.uniform(-700.0, 700.0);
    ASSERT_EQ(bits(exp_fast(x)), bits(exp_fast_reference(x))) << "x=" << x;
  }
}

TEST(ExpFast, NanPropagatesAndLargeArgumentsSaturate) {
  EXPECT_TRUE(std::isnan(exp_fast(std::numeric_limits<double>::quiet_NaN())));
  for (const double x : {800.0, -800.0, 1e6, -1e6,
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    const double y = exp_fast(x);
    EXPECT_TRUE(std::isfinite(y)) << "x=" << x;
    EXPECT_GT(y, 0.0) << "x=" << x;
  }
  // Saturation holds the clamp's value, so it stays monotone.
  EXPECT_EQ(exp_fast(800.0), exp_fast(709.0));
  EXPECT_EQ(exp_fast(-1e6), exp_fast(-708.0));
}

TEST(ExpFast, ExactAtZero) { EXPECT_DOUBLE_EQ(exp_fast(0.0), 1.0); }

TEST(ExpFast, RelativeErrorOnOperatingRange) {
  // The leakage kernel feeds beta * (T - T0), i.e. O(1) arguments; the
  // documented accuracy there is ~1e-11 relative.
  for (double x = -20.0; x <= 20.0; x += 1.0 / 64.0) {
    const double exact = std::exp(x);
    EXPECT_NEAR(exp_fast(x) / exact, 1.0, 5e-11) << "x=" << x;
  }
}

TEST(ExpFast, RelativeErrorOnFullRange) {
  // |x| <= ~700 stays finite and accurate; the polynomial error does not
  // grow with |x| (only the 2^k scale does), so the bound holds throughout.
  for (double x = -700.0; x <= 700.0; x += 0.37) {
    const double exact = std::exp(x);
    EXPECT_NEAR(exp_fast(x) / exact, 1.0, 5e-11) << "x=" << x;
  }
}

TEST(ExpFast, SaturatesInsteadOfOverflowing) {
  // Outside [-708, 709] the argument clamp gives a finite (inaccurate)
  // value rather than infinity/garbage bit patterns.
  EXPECT_TRUE(std::isfinite(exp_fast(800.0)));
  EXPECT_GT(exp_fast(800.0), 0.0);
  EXPECT_TRUE(std::isfinite(exp_fast(-800.0)));
}

TEST(ExpFast, DeterministicAcrossCalls) {
  for (double x = -5.0; x <= 5.0; x += 0.1) {
    EXPECT_EQ(exp_fast(x), exp_fast(x));
  }
}

TEST(ExpFast, MonotoneOnLeakageRange) {
  // Leakage feedback only needs local monotonicity over realistic
  // temperature excursions (beta ~0.01-0.02, |dT| <= ~100 C -> |x| <= 2).
  double prev = exp_fast(-2.0);
  for (double x = -2.0 + 1e-3; x <= 2.0; x += 1e-3) {
    const double cur = exp_fast(x);
    EXPECT_GE(cur, prev) << "x=" << x;
    prev = cur;
  }
}

}  // namespace
}  // namespace cpm::util
