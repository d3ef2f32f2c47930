// parallel-capture fixtures: default by-reference capture in parallel_map
// lambdas, with the explicit-capture form and the suppression as controls.
#include <cstddef>
#include <vector>

namespace fixture::util {

// Stand-in with the same shape as util::parallel_map.
template <typename Result, typename Fn>
std::vector<Result> parallel_map(std::size_t count, const Fn& fn) {
  std::vector<Result> out;
  for (std::size_t i = 0; i < count; ++i) out.push_back(fn(i));
  return out;
}

// Stand-in for the sharded sibling, same capture rules.
template <typename Work>
void parallel_for_shards(std::size_t shards, std::size_t, const Work& work) {
  for (std::size_t s = 0; s < shards; ++s) work(s);
}

// Stand-in for the pool dispatch entry point (util::ThreadPool::run_batch).
template <typename Body>
void run_batch(std::size_t count, std::size_t, const Body& body) {
  for (std::size_t i = 0; i < count; ++i) body(i);
}

}  // namespace fixture::util

namespace fixture::core {

double positive_default_ref_capture(const std::vector<double>& budgets) {
  const auto points = fixture::util::parallel_map<double>(
      budgets.size(), [&](std::size_t i) {  // finding: [&] in parallel_map
        return budgets[i] * 2.0;
      });
  return points.empty() ? 0.0 : points.front();
}

double positive_default_ref_with_list(const std::vector<double>& budgets) {
  double bias = 1.0;
  const auto points = fixture::util::parallel_map<double>(
      budgets.size(),
      [&, bias](std::size_t i) {  // finding: [&, ...] still defaults to ref
        return budgets[i] + bias;
      });
  return points.empty() ? 0.0 : points.front();
}

double positive_shards_default_ref(const std::vector<double>& budgets) {
  std::vector<double> points(budgets.size());
  fixture::util::parallel_for_shards(
      budgets.size(), 4,
      [&](std::size_t s) {  // finding: [&] in parallel_for_shards
        points[s] = budgets[s];
      });
  return points.empty() ? 0.0 : points.front();
}

double positive_shards_default_ref_with_list(
    const std::vector<double>& budgets) {
  std::vector<double> points(budgets.size());
  const double bias = 1.0;
  fixture::util::parallel_for_shards(
      budgets.size(), 4,
      [&, bias](std::size_t s) {  // finding: [&, ...] in parallel_for_shards
        points[s] = budgets[s] + bias;
      });
  return points.empty() ? 0.0 : points.front();
}

double negative_shards_explicit_captures(const std::vector<double>& budgets) {
  std::vector<double> points(budgets.size());
  fixture::util::parallel_for_shards(
      budgets.size(), 4,
      [&points, &budgets](std::size_t s) { points[s] = budgets[s]; });
  return points.empty() ? 0.0 : points.front();
}

double negative_explicit_captures(const std::vector<double>& budgets) {
  const auto points = fixture::util::parallel_map<double>(
      budgets.size(),
      [&budgets](std::size_t i) { return budgets[i] * 2.0; });
  return points.empty() ? 0.0 : points.front();
}

double suppressed_default_ref(const std::vector<double>& budgets) {
  const auto points = fixture::util::parallel_map<double>(
      // cpm-lint: allow(parallel-capture) fixture for the suppression syntax; captures only const locals
      budgets.size(), [&](std::size_t i) { return budgets[i]; });
  return points.empty() ? 0.0 : points.front();
}

double positive_run_batch_default_ref(const std::vector<double>& budgets) {
  double sum = 0.0;
  fixture::util::run_batch(
      budgets.size(), 4,
      [&](std::size_t i) {  // finding: [&] handed to the pool dispatch
        sum += budgets[i];
      });
  return sum;
}

double negative_run_batch_explicit(const std::vector<double>& budgets) {
  double sum = 0.0;
  fixture::util::run_batch(
      budgets.size(), 4,
      [&sum, &budgets](std::size_t i) { sum += budgets[i]; });
  return sum;
}

// A lambda with [&] *outside* a parallel_map call is fine (serial code).
double negative_serial_lambda(const std::vector<double>& budgets) {
  double sum = 0.0;
  const auto add = [&](double x) { sum += x; };
  for (double b : budgets) add(b);
  return sum;
}

}  // namespace fixture::core

namespace fixture::sim {

static double mutable_global = 0.0;  // finding: mutable namespace static
static const double kConstGlobal = 1.0;  // const: fine
static constexpr double kConstexprGlobal = 2.0;  // constexpr: fine
// cpm-lint: allow(parallel-capture) fixture: guarded by the registry mutex
static double suppressed_global = 3.0;

static double helper_function(double x) {  // static fn: internal linkage, fine
  static double local_accumulator = 0.0;   // function-local: fine
  local_accumulator += x;
  return local_accumulator + mutable_global + kConstGlobal +
         kConstexprGlobal + suppressed_global;
}

double use_all(double x) { return helper_function(x); }

}  // namespace fixture::sim
