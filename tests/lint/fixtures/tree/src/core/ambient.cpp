// determinism fixtures: ambient entropy and wall-clock reads outside the
// approved seeding/telemetry sites.
#include <chrono>
#include <cstdlib>
#include <random>

namespace fixture::core {

int positive_rand() {
  return std::rand();  // finding: ambient libc entropy
}

unsigned positive_random_device() {
  std::random_device entropy;  // finding: unseeded entropy
  return entropy();
}

long positive_wall_clock() {
  const auto t0 = std::chrono::steady_clock::now();  // finding: wall clock
  return t0.time_since_epoch().count();
}

long suppressed_wall_clock() {
  // cpm-lint: allow(determinism) fixture demonstrating an approved diagnostic-only timestamp
  const auto t0 = std::chrono::system_clock::now();
  return t0.time_since_epoch().count();
}

// A member function *named* rand is not the libc call.
struct Dice {
  int rand() const { return 4; }
};

int negative_member_rand(const Dice& dice) { return dice.rand(); }

void positive_registry() { cpm::util::MetricsRegistry::global(); }  // finding: per-call global metric write

}  // namespace fixture::core
