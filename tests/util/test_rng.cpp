#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace cpm::util {
namespace {

TEST(Xoshiro, SameSeedSameSequence) {
  Xoshiro256pp a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b()) << "diverged at step " << i;
  }
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256pp a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256pp rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Xoshiro, UniformMeanNearHalf) {
  Xoshiro256pp rng(11);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Xoshiro, UniformRangeRespectsBounds) {
  Xoshiro256pp rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 7.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 7.0);
  }
}

TEST(Xoshiro, UniformIntBounds) {
  Xoshiro256pp rng(9);
  std::vector<int> hist(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.uniform_int(10);
    ASSERT_LT(v, 10u);
    ++hist[v];
  }
  // Roughly uniform: each bucket within 30 % of the expected 1000.
  for (const int count : hist) {
    EXPECT_GT(count, 700);
    EXPECT_LT(count, 1300);
  }
}

TEST(Xoshiro, UniformIntZeroYieldsZero) {
  Xoshiro256pp rng(3);
  EXPECT_EQ(rng.uniform_int(0), 0u);
}

TEST(Xoshiro, NormalMoments) {
  Xoshiro256pp rng(13);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sq / kN, 1.0, 0.03);
}

TEST(Xoshiro, FastNormalMomentsAndBounds) {
  Xoshiro256pp rng(19);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.fast_normal();
    ASSERT_GE(x, -3.0);
    ASSERT_LE(x, 3.0);
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sq / kN, 1.0, 0.03);
}

TEST(Xoshiro, FastNormal3MomentsAndBounds) {
  Xoshiro256pp rng(23);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    double a, b, c;
    rng.fast_normal3(a, b, c);
    for (const double x : {a, b, c}) {
      ASSERT_GE(x, -3.0);
      ASSERT_LE(x, 3.0);
      sum += x;
      sq += x * x;
    }
  }
  EXPECT_NEAR(sum / (3 * kN), 0.0, 0.02);
  EXPECT_NEAR(sq / (3 * kN), 1.0, 0.03);
}

TEST(Xoshiro, FastNormal3ConsumesExactlyOneDraw) {
  // The batched demand-noise path budgets ONE generator step per call;
  // stream alignment between code paths depends on that staying true.
  Xoshiro256pp a(31), b(31);
  double n0, n1, n2;
  a.fast_normal3(n0, n1, n2);
  (void)b();
  for (int i = 0; i < 16; ++i) ASSERT_EQ(a(), b());
}

/// The previous fast_normal3 field mapping, kept as the bit-level
/// reference: each 7-bit seventh converted to double on its own and the
/// three added in double.
double irwin_hall21_reference(std::uint64_t field) {
  const double a = static_cast<double>(field & 0x7Fu);
  const double b = static_cast<double>((field >> 7) & 0x7Fu);
  const double c = static_cast<double>((field >> 14) & 0x7Fu);
  return ((a + b + c + 1.5) * 0x1.0p-7 - 1.5) * 2.0;
}

TEST(Xoshiro, FastNormal3BitIdenticalToThreeConversionFormula) {
  Xoshiro256pp rng(20100913), twin(20100913);
  for (int i = 0; i < 1'000'000; ++i) {
    double n0, n1, n2;
    rng.fast_normal3(n0, n1, n2);
    const std::uint64_t draw = twin();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(n0),
              std::bit_cast<std::uint64_t>(
                  irwin_hall21_reference(draw & 0x1FFFFFu)));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(n1),
              std::bit_cast<std::uint64_t>(
                  irwin_hall21_reference((draw >> 21) & 0x1FFFFFu)));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(n2),
              std::bit_cast<std::uint64_t>(
                  irwin_hall21_reference((draw >> 42) & 0x1FFFFFu)));
  }
}

TEST(Xoshiro, FastNormal3FieldsAreIndependentlyDistributed) {
  // The three deviates come from disjoint 21-bit fields of one word; their
  // pairwise sample correlation over many draws should be near zero.
  Xoshiro256pp rng(37);
  constexpr int kN = 50000;
  double s01 = 0.0, s02 = 0.0, s12 = 0.0;
  for (int i = 0; i < kN; ++i) {
    double a, b, c;
    rng.fast_normal3(a, b, c);
    s01 += a * b;
    s02 += a * c;
    s12 += b * c;
  }
  EXPECT_NEAR(s01 / kN, 0.0, 0.02);
  EXPECT_NEAR(s02 / kN, 0.0, 0.02);
  EXPECT_NEAR(s12 / kN, 0.0, 0.02);
}

TEST(Xoshiro, NormalScaled) {
  Xoshiro256pp rng(17);
  double sum = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.05);
}

TEST(Xoshiro, BernoulliEdges) {
  Xoshiro256pp rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Xoshiro, BernoulliRate) {
  Xoshiro256pp rng(23);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Xoshiro, ForkProducesIndependentStream) {
  Xoshiro256pp parent(31);
  Xoshiro256pp child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Splitmix, KnownProgression) {
  std::uint64_t s = 0;
  const std::uint64_t a = splitmix64(s);
  const std::uint64_t b = splitmix64(s);
  EXPECT_NE(a, b);
  // Deterministic given the algorithm (regression guard).
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), a);
}

}  // namespace
}  // namespace cpm::util
