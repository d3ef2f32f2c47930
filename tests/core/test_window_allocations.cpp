// Heap allocations per GPM window. This binary replaces the global operator
// new with a counting one (its own executable, so no other test pays for
// it). After one warm-up window, a NoDVFS or static-MaxBIPS run feeding a
// sink that retains nothing must not allocate: the run reuses its
// observation and record buffers, and MaxBIPS hands back the levels it owns.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/experiment.h"
#include "core/record_sink.h"
#include "core/simulation.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cpm::core {
namespace {

/// Counts records through the base class's aggregates and keeps none.
class DiscardingSink : public RecordSink {
 protected:
  void on_pic(const PicIntervalRecord&) override {}
  void on_gpm(const GpmIntervalRecord&) override {}
  void on_finish(SimulationResult&) override {}
};

constexpr std::size_t kWindows = 8;

/// Heap allocations per GPM window after a one-window warm-up.
double allocations_per_window(const SimulationConfig& config) {
  Simulation sim(config);
  DiscardingSink sink;
  const std::unique_ptr<SimulationRun> run = sim.start(sink);
  const double window_s = config.cmp.gpm_interval_s;
  run->advance(window_s);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t w = 0; w < kWindows; ++w) run->advance(window_s);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(sink.gpm_records_seen(), kWindows + 1);
  return static_cast<double>(after - before) / static_cast<double>(kWindows);
}

TEST(WindowAllocations, CountingOperatorNewIsInstalled) {
  const std::uint64_t before = g_allocations.load();
  void* p = ::operator new(sizeof(double));
  EXPECT_EQ(g_allocations.load(), before + 1);
  ::operator delete(p);
}

TEST(WindowAllocations, NoDvfsWindowDoesNotAllocate) {
  EXPECT_EQ(allocations_per_window(
                with_manager(default_config(), ManagerKind::kNoDvfs)),
            0.0);
}

TEST(WindowAllocations, StaticMaxBipsWindowDoesNotAllocate) {
  EXPECT_EQ(allocations_per_window(
                with_manager(default_config(), ManagerKind::kMaxBips)),
            0.0);
}

}  // namespace
}  // namespace cpm::core
