// Small statistics toolkit: running moments, linear regression, EWMA,
// percentiles. Used by the power transducer calibration (Fig. 6), the system
// identification bench (Fig. 5), and all experiment reports.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cpm::util {

/// Single-pass running mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;
  void reset() noexcept { *this = RunningStats{}; }

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Running mean alone: RunningStats' mean recurrence (mean += (x - mean) / n),
/// so its mean() is bit-identical, without the variance, extrema and sum
/// that a per-tick aggregate never reads.
class RunningMean {
 public:
  void add(double x) noexcept {
    ++n_;
    mean_ = next(mean_, x, static_cast<double>(n_));
  }
  /// The update add() applies: the mean of n samples from `mean`, that of
  /// the first n - 1, and the n-th sample `x`. Callers that keep many means
  /// of one sample count in a flat column apply it lane by lane.
  [[gnu::always_inline]] static double next(double mean, double x,
                                            double n) noexcept {
    return mean + (x - mean) / n;
  }
  double mean() const noexcept { return mean_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
};

/// Ordinary least-squares fit y = slope*x + intercept with R².
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
  std::size_t n = 0;

  double predict(double x) const noexcept { return slope * x + intercept; }
};

/// Fits y against x. Requires x.size() == y.size(); degenerate inputs
/// (fewer than 2 points or zero x-variance) yield slope 0, intercept mean(y).
LinearFit linear_fit(std::span<const double> x, std::span<const double> y);

/// Incremental least-squares accumulator for the same fit as linear_fit().
class IncrementalLinearFit {
 public:
  void add(double x, double y) noexcept;
  void reset() noexcept { *this = IncrementalLinearFit{}; }
  std::size_t count() const noexcept { return n_; }
  LinearFit fit() const noexcept;

 private:
  std::size_t n_ = 0;
  double sx_ = 0.0, sy_ = 0.0, sxx_ = 0.0, sxy_ = 0.0, syy_ = 0.0;
};

/// Exponentially weighted moving average; alpha in (0,1] is the weight of
/// the newest sample.
class Ewma {
 public:
  explicit Ewma(double alpha) noexcept : alpha_(alpha) {}
  double update(double x) noexcept;
  double value() const noexcept { return value_; }
  bool primed() const noexcept { return primed_; }
  void reset() noexcept { primed_ = false; value_ = 0.0; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool primed_ = false;
};

/// p-th percentile (p in [0,100]) with linear interpolation; copies and
/// sorts the input. Empty input yields 0.
double percentile(std::span<const double> values, double p);

/// Mean absolute error between two equally sized series.
double mean_abs_error(std::span<const double> a, std::span<const double> b);

/// Mean absolute percentage error of `actual` vs `reference` (reference==0
/// samples are skipped). Returns a fraction (0.01 == 1 %).
double mean_abs_pct_error(std::span<const double> actual,
                          std::span<const double> reference);

}  // namespace cpm::util
