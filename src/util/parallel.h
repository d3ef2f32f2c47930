// Deterministic parallel primitives over an index range. Experiment sweeps
// (budget curves, scaling studies) run many independent, seeded simulations;
// parallel_map fans them out across hardware threads while keeping results in
// index order, so parallel and serial execution produce bit-identical output.
//
// One rule keeps every caller bit-identical at any thread count: a parallel
// task writes only its own element's or shard's slot, and every floating-
// point reduction and every RNG draw that must be reproducible runs on the
// calling thread in index order, outside the parallel call. The primitives
// therefore never combine anything themselves. parallel_for_shards hands
// contiguous blocks of a ShardPlan to the workers, so cheap per-element work
// (one cluster epoch of one chip, core/cluster.h) pays one dispatch per shard
// rather than one per element; the shard size sets how much work goes to one
// task and never changes a result. shard_stream gives each shard of a serial
// draw loop its own RNG stream (make_cluster_chips).
//
// Execution engine: every primitive dispatches through the persistent
// util::ThreadPool (thread_pool.h) -- workers park on a condition variable
// between calls, so a dispatch costs condvar-wake time (~1-5 us), not
// thread-spawn time (~100 us+), and each primitive is templated on its
// callable (no std::function type-erasure, no per-task allocation). The
// serial path (threads <= 1) runs inline with the same per-task trace spans,
// so a serial trace stays event-equivalent to a parallel one (see
// docs/THREADING.md for the full determinism contract). The primitives
// publish no metrics; the pool counts its own dispatches.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace cpm::util {

/// Workers a parallel call over `tasks` tasks requesting `threads` (0 = the
/// default count) runs on: never more than the tasks, and 1 from inside a
/// pool task, where a nested batch runs inline. Every primitive here and any
/// caller that plans its work by the worker count (core/cluster.h) asks this
/// one function, so they cannot disagree.
inline std::size_t parallel_workers(std::size_t tasks, std::size_t threads) {
  if (ThreadPool::on_worker_thread()) return 1;
  return std::min(tasks, threads ? threads : default_thread_count());
}

/// Applies `fn(i)` for i in [0, count) on up to `threads` workers and
/// returns the results in index order. `fn` must be safe to call
/// concurrently for distinct indices. If any invocation throws, the first
/// exception observed is rethrown after the batch terminates and the
/// remaining indices are explicitly skipped -- a partially-filled result
/// vector can never escape, because the throw replaces the return.
template <typename Result, typename Fn>
std::vector<Result> parallel_map(std::size_t count, Fn&& fn,
                                 std::size_t threads = 0) {
  std::vector<Result> results(count);
  if (count == 0) return results;
  const std::size_t workers = parallel_workers(count, threads);
  // The per-task span lives inside the batch body, so the serial,
  // reentrant-inline, and pooled paths emit the same per-task events --
  // asserted by tests/integration/test_trace_determinism.cpp.
  auto body = [&results, &fn](std::size_t i) {
    CPM_TRACE_SCOPE1("parallel", "parallel_map.task", "index", i);
    results[i] = fn(i);
  };
  ThreadPool::global().run_batch(count, workers, body);
  return results;
}

/// Default shard size: small enough to keep workers load-balanced on uneven
/// per-element cost, large enough that the per-shard dispatch is noise.
inline constexpr std::size_t kDefaultShardSize = 16;

/// Fixed decomposition of [0, count) into contiguous shards of `shard_size`
/// elements (the last shard may be short), a pure function of
/// (count, shard_size). A shard size of 0 covers nothing; parallel_for_shards
/// rejects it for a non-empty range.
struct ShardPlan {
  std::size_t count = 0;
  std::size_t shard_size = kDefaultShardSize;

  std::size_t num_shards() const noexcept {
    return shard_size == 0 ? 0 : (count + shard_size - 1) / shard_size;
  }
  std::size_t begin(std::size_t shard) const noexcept {
    return shard * shard_size;
  }
  std::size_t end(std::size_t shard) const noexcept {
    const std::size_t e = (shard + 1) * shard_size;
    return e < count ? e : count;
  }
};

/// The RNG stream owned by shard `shard` of a run seeded with `seed`:
/// xoshiro256++ states derived through SplitMix64 so neighbouring shard
/// indices land on decorrelated streams. Stream identity depends only on
/// (seed, shard).
inline Xoshiro256pp shard_stream(std::uint64_t seed,
                                 std::uint64_t shard) noexcept {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (shard + 1));
  return Xoshiro256pp{splitmix64(state)};
}

/// Runs `work(shard)` exactly once for every shard of `plan`, on up to
/// `threads` workers through the persistent pool (inline when there is one
/// shard or threads <= 1). `work` must write only state its shard owns;
/// reductions over the shards belong to the caller, after the call, in index
/// order. The first exception a task throws is rethrown after the batch
/// terminates. Throws std::invalid_argument when a non-empty plan has shard
/// size 0 (it would otherwise silently run nothing).
template <typename Work>
void parallel_for_shards(const ShardPlan& plan, std::size_t threads,
                         Work&& work) {
  if (plan.count > 0 && plan.shard_size == 0) {
    throw std::invalid_argument("parallel_for_shards: shard size must be >= 1");
  }
  const std::size_t shards = plan.num_shards();
  if (shards == 0) return;
  const std::size_t workers = parallel_workers(shards, threads);
  // Same per-shard spans on every path: a serial trace stays
  // event-equivalent to a parallel one (modulo tid/ts).
  auto body = [&work](std::size_t s) {
    CPM_TRACE_SCOPE1("parallel", "parallel_map.shard", "shard", s);
    work(s);
  };
  ThreadPool::global().run_batch(shards, workers, body);
}

}  // namespace cpm::util
