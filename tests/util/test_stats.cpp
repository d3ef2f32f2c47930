#include "util/stats.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace cpm::util {
namespace {

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningMean, BitIdenticalToRunningStatsMean) {
  RunningStats full;
  RunningMean mean;
  EXPECT_EQ(mean.mean(), full.mean());
  Xoshiro256pp rng(17);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(-3.0, 40.0);
    full.add(x);
    mean.add(x);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(mean.mean()),
              std::bit_cast<std::uint64_t>(full.mean()))
        << "sample " << i;
  }
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, a, b;
  Xoshiro256pp rng(1);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(LinearFit, ExactLine) {
  std::vector<double> x{0, 1, 2, 3, 4};
  std::vector<double> y{1, 3, 5, 7, 9};  // y = 2x + 1
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.predict(10.0), 21.0, 1e-12);
}

TEST(LinearFit, NoisyLineHighR2) {
  Xoshiro256pp rng(2);
  std::vector<double> x, y;
  for (int i = 0; i < 1000; ++i) {
    const double xi = rng.uniform(0.0, 10.0);
    x.push_back(xi);
    y.push_back(3.5 * xi - 2.0 + rng.normal(0.0, 0.5));
  }
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 3.5, 0.05);
  EXPECT_NEAR(fit.intercept, -2.0, 0.2);
  EXPECT_GT(fit.r_squared, 0.98);
}

TEST(LinearFit, DegenerateSinglePoint) {
  std::vector<double> x{1.0}, y{5.0};
  const LinearFit fit = linear_fit(x, y);
  EXPECT_EQ(fit.slope, 0.0);
  EXPECT_EQ(fit.intercept, 5.0);
}

TEST(LinearFit, ZeroVarianceX) {
  std::vector<double> x{2.0, 2.0, 2.0}, y{1.0, 2.0, 3.0};
  const LinearFit fit = linear_fit(x, y);
  EXPECT_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

TEST(IncrementalLinearFit, MatchesBatch) {
  Xoshiro256pp rng(3);
  std::vector<double> x, y;
  IncrementalLinearFit inc;
  for (int i = 0; i < 200; ++i) {
    const double xi = rng.uniform(0.0, 5.0);
    const double yi = -1.2 * xi + 4.0 + rng.normal(0.0, 0.1);
    x.push_back(xi);
    y.push_back(yi);
    inc.add(xi, yi);
  }
  const LinearFit batch = linear_fit(x, y);
  const LinearFit online = inc.fit();
  EXPECT_NEAR(online.slope, batch.slope, 1e-9);
  EXPECT_NEAR(online.intercept, batch.intercept, 1e-9);
  EXPECT_NEAR(online.r_squared, batch.r_squared, 1e-9);
}

TEST(Ewma, FirstSamplePrimes) {
  Ewma e(0.5);
  EXPECT_FALSE(e.primed());
  EXPECT_DOUBLE_EQ(e.update(10.0), 10.0);
  EXPECT_TRUE(e.primed());
  EXPECT_DOUBLE_EQ(e.update(0.0), 5.0);
  EXPECT_DOUBLE_EQ(e.update(5.0), 5.0);
}

TEST(Ewma, ResetClears) {
  Ewma e(0.2);
  e.update(1.0);
  e.reset();
  EXPECT_FALSE(e.primed());
  EXPECT_DOUBLE_EQ(e.update(7.0), 7.0);
}

TEST(Percentile, Basics) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 75), 7.5);
}

TEST(Percentile, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(ErrorMetrics, MeanAbsError) {
  std::vector<double> a{1, 2, 3}, b{2, 2, 5};
  EXPECT_DOUBLE_EQ(mean_abs_error(a, b), (1.0 + 0.0 + 2.0) / 3.0);
}

TEST(ErrorMetrics, MeanAbsPctErrorSkipsZeroReference) {
  std::vector<double> actual{1.1, 5.0, 2.0}, ref{1.0, 0.0, 4.0};
  // Only samples 0 and 2 count: (0.1 + 0.5)/2.
  EXPECT_NEAR(mean_abs_pct_error(actual, ref), 0.3, 1e-12);
}

TEST(ErrorMetrics, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean_abs_error({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(mean_abs_pct_error({}, {}), 0.0);
}

}  // namespace
}  // namespace cpm::util
