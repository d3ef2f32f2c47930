// Microbenchmarks (google-benchmark) for the management machinery itself:
// the cost of one PID update, one PIC invocation, one GPM provisioning
// decision, one MaxBIPS DP solve, one repeated-input MaxBIPS call (a
// static-table window, answered from the last solve), and one full
// simulation tick. The paper charges 0.5 % of CPU time per DVFS transition
// and argues the controllers are cheap; these numbers substantiate that for
// this implementation.
#include <benchmark/benchmark.h>

#include "control/pid.h"
#include "core/experiment.h"
#include "core/maxbips.h"
#include "core/perf_policy.h"
#include "core/pic.h"
#include "sim/chip.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"
#include "workload/mixes.h"
#include "util/units.h"

namespace {

using namespace cpm;

void BM_PidUpdate(benchmark::State& state) {
  control::PidController pid{control::PidConfig{}};
  double e = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pid.update(e));
    e = -e;
  }
}
BENCHMARK(BM_PidUpdate);

void BM_PicInvoke(benchmark::State& state) {
  core::PicConfig cfg;
  cfg.power_scale_w = 70.0;
  core::Pic pic(cfg, power::TransducerModel{20.0, 2.0, 0.96}, units::GigaHertz{2.0});
  pic.set_target(units::Watts{12.0});
  double u = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pic.invoke(u, 0.8).value());
    u = u < 0.9 ? u + 0.01 : 0.3;
  }
}
BENCHMARK(BM_PicInvoke);

void BM_GpmProvision(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  core::PerformanceAwarePolicy policy;
  std::vector<core::IslandObservation> obs(n);
  for (std::size_t i = 0; i < n; ++i) {
    obs[i].bips = 1.0 + 0.1 * static_cast<double>(i);
    obs[i].power_w = 10.0;
  }
  std::vector<double> prev(n, 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.provision(units::Watts{80.0}, obs, prev));
  }
}
BENCHMARK(BM_GpmProvision)->Arg(4)->Arg(8)->Arg(16);

std::vector<core::IslandObservation> maxbips_islands(std::size_t n,
                                                     double bips_step) {
  std::vector<core::IslandObservation> obs(n);
  for (std::size_t i = 0; i < n; ++i) {
    obs[i].bips = 1.0 + bips_step * static_cast<double>(i);
    obs[i].power_w = 10.0;
    obs[i].dvfs_level = 7;
  }
  return obs;
}

void BM_MaxBipsSolve(benchmark::State& state) {
  // The DP itself: the manager answers a repeated input from its last solve,
  // so alternate two observation sets and every iteration solves.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  core::MaxBipsManager mgr(core::MaxBipsConfig{}, units::Watts{10.0 * double(n) * 0.8});
  const std::vector<core::IslandObservation> obs[2] = {
      maxbips_islands(n, 0.2), maxbips_islands(n, 0.25)};
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.choose_levels(obs[k]).data());
    k ^= 1;
  }
}
BENCHMARK(BM_MaxBipsSolve)->Arg(4)->Arg(8)->Arg(16);

void BM_MaxBipsRepeatedInput(benchmark::State& state) {
  // The per-window cost with the static table: the same input every call.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  core::MaxBipsManager mgr(core::MaxBipsConfig{}, units::Watts{10.0 * double(n) * 0.8});
  const std::vector<core::IslandObservation> obs = maxbips_islands(n, 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.choose_levels(obs).data());
  }
}
BENCHMARK(BM_MaxBipsRepeatedInput)->Arg(4)->Arg(8)->Arg(16);

void BM_ChipTick(benchmark::State& state) {
  sim::Chip chip(sim::CmpConfig::default_8core(), workload::mix1(), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chip.step(1e-4));
  }
}
BENCHMARK(BM_ChipTick);

void BM_TraceScope(benchmark::State& state) {
  // Cost of an armed-but-idle trace point: with tracing compiled in and no
  // session active this is one relaxed atomic load; with -DCPM_TRACING=OFF
  // the macro expands to nothing and this must match the empty loop exactly
  // (the zero-cost-when-disabled acceptance check).
  double v = 0.0;
  for (auto _ : state) {
    CPM_TRACE_SCOPE1("bench", "noop", "v", v);
    v += 1.0;
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_TraceScope);

void BM_TraceScopeBaseline(benchmark::State& state) {
  // The empty-loop reference BM_TraceScope is compared against.
  double v = 0.0;
  for (auto _ : state) {
    v += 1.0;
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_TraceScopeBaseline);

void BM_MetricsCounter(benchmark::State& state) {
  util::Counter& counter =
      util::MetricsRegistry::global().counter("bench.counter");
  for (auto _ : state) {
    counter.add();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_MetricsCounter);

void BM_ParallelDispatchMap(benchmark::State& state) {
  // Raw dispatch overhead of the persistent pool: an empty-body parallel_map
  // at count=1 (inline path), 16, and 512 tasks, 8-way parallelism. Before
  // the pool this spawned and joined 7 std::threads per iteration (~100 us
  // and up); with parked workers a dispatch is a few condvar wakes.
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto out = util::parallel_map<std::size_t>(
        count, [](std::size_t i) { return i; }, 8);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelDispatchMap)->Arg(1)->Arg(16)->Arg(512);

void BM_ParallelDispatchShards(benchmark::State& state) {
  // Same measurement through the sharded path at one element per shard, the
  // shape of the cluster epoch loop's chip advance (parallel_for_shards).
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  const util::ShardPlan plan{count, /*shard_size=*/1};
  std::vector<double> slots(count);
  for (auto _ : state) {
    util::parallel_for_shards(plan, 8, [&slots](std::size_t s) {
      slots[s] = static_cast<double>(s);
    });
    benchmark::DoNotOptimize(slots.data());
  }
}
BENCHMARK(BM_ParallelDispatchShards)->Arg(1)->Arg(16)->Arg(512);

void BM_FullGpmWindow(benchmark::State& state) {
  // One GPM window of the full coordinated simulation (50 ticks + 10 PIC
  // invocations + 1 GPM invocation), amortized.
  core::Simulation sim(core::default_config(0.8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(5e-3));
  }
}
BENCHMARK(BM_FullGpmWindow)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
