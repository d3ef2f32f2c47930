// Deterministic parallel primitives over an index range. Experiment sweeps
// (budget curves, scaling studies) run many independent, seeded simulations;
// parallel_map fans them out across hardware threads while keeping results in
// index order, so parallel and serial execution produce bit-identical output.
//
// The sharded primitives below (parallel_map_rng, parallel_reduce) extend the
// same contract to *stateful* per-element work: the index range is cut into
// fixed-size shards whose decomposition depends only on the element count --
// never on the thread count -- so each shard's RNG stream and each reduction's
// combine order are identical whether one worker or sixteen pick the shards
// up. That is what lets a 1000-chip cluster epoch (core/cluster.h) produce
// bit-identical results at any thread count.
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
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace cpm::util {

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
  const std::size_t workers =
      std::min(count, threads ? threads : default_thread_count());
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

/// Default shard size for the sharded primitives: small enough to keep
/// workers load-balanced on uneven per-element cost, large enough that the
/// per-shard bookkeeping (RNG stream derivation, partial slot) is noise.
inline constexpr std::size_t kDefaultShardSize = 16;

/// Fixed decomposition of [0, count) into contiguous shards of `shard_size`
/// elements (the last shard may be short). The decomposition is a pure
/// function of (count, shard_size) -- the thread count never enters -- which
/// is the invariant every determinism guarantee below rests on.
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
/// (seed, shard) -- every worker that picks the shard up sees the same
/// stream, and a serial run sees the same streams a 16-thread run does.
inline Xoshiro256pp shard_stream(std::uint64_t seed,
                                 std::uint64_t shard) noexcept {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (shard + 1));
  return Xoshiro256pp{splitmix64(state)};
}

namespace detail {

/// Runs `work(shard)` for every shard of `plan`, on up to `threads` workers
/// through the persistent pool (inline when the plan is small or threads
/// <= 1). The first exception is rethrown after the batch terminates.
template <typename Work>
void run_shards(const ShardPlan& plan, std::size_t threads, Work&& work) {
  const std::size_t shards = plan.num_shards();
  if (shards == 0) return;
  const std::size_t workers =
      std::min(shards, threads ? threads : default_thread_count());
  // Same per-shard spans on every path: a serial trace stays
  // event-equivalent to a parallel one (modulo tid/ts).
  auto body = [&work](std::size_t s) {
    CPM_TRACE_SCOPE1("parallel", "parallel_map.shard", "shard", s);
    work(s);
  };
  ThreadPool::global().run_batch(shards, workers, body);
}

}  // namespace detail

/// parallel_map with a per-shard RNG stream: applies `fn(i, rng)` for i in
/// [0, count) and returns the results in index order. Elements of one shard
/// run in index order sharing that shard's stream (`shard_stream(seed, s)`),
/// so any element's RNG state is a pure function of (seed, shard_size, i) --
/// bit-identical results at any thread count. `fn` must be safe to call
/// concurrently for indices in *different* shards.
template <typename Result, typename Fn>
std::vector<Result> parallel_map_rng(std::size_t count, std::uint64_t seed,
                                     Fn&& fn, std::size_t threads = 0,
                                     std::size_t shard_size =
                                         kDefaultShardSize) {
  std::vector<Result> results(count);
  const ShardPlan plan{count, shard_size};
  detail::run_shards(plan, threads,
                     [&results, &fn, seed, plan](std::size_t s) {
                       Xoshiro256pp rng = shard_stream(seed, s);
                       for (std::size_t i = plan.begin(s); i < plan.end(s);
                            ++i) {
                         results[i] = fn(i, rng);
                       }
                     });
  return results;
}

/// parallel_reduce with caller-owned scratch: folds every index of `plan`
/// into its shard's slot of `partials` (resized/reset here; the capacity is
/// what the caller reuses), then combines the partials *in shard order* on
/// the calling thread. This is the epoch-loop fast path: a caller that
/// reduces every epoch (core/cluster.cpp) keeps one partials vector alive
/// across epochs instead of reallocating one per call.
template <typename Acc, typename Fold, typename Combine>
Acc parallel_reduce_into(const ShardPlan& plan, std::vector<Acc>& partials,
                         Fold&& fold, Combine&& combine, Acc init = Acc{},
                         std::size_t threads = 0) {
  partials.assign(plan.num_shards(), init);
  detail::run_shards(plan, threads,
                     [&partials, &fold, plan](std::size_t s) {
                       for (std::size_t i = plan.begin(s); i < plan.end(s);
                            ++i) {
                         fold(partials[s], i);
                       }
                     });
  Acc result = std::move(init);
  for (const Acc& partial : partials) combine(result, partial);
  return result;
}

/// Deterministic order-independent reduction: folds every index into a
/// shard-local accumulator (`fold(acc, i)`, indices in order within the
/// shard), then combines the shard partials *in shard order* on the calling
/// thread. "Order-independent" means independent of thread scheduling: the
/// floating-point combine sequence is fixed by the shard plan, so the result
/// is bit-identical at any thread count -- unlike a naive atomic/locked sum,
/// whose accumulation order follows whichever worker finishes first. Memory
/// is O(num_shards) accumulators. `fold` must be safe to call concurrently
/// for indices in different shards.
template <typename Acc, typename Fold, typename Combine>
Acc parallel_reduce(std::size_t count, Fold&& fold, Combine&& combine,
                    Acc init = Acc{}, std::size_t threads = 0,
                    std::size_t shard_size = kDefaultShardSize) {
  const ShardPlan plan{count, shard_size};
  std::vector<Acc> partials;
  return parallel_reduce_into(plan, partials, std::forward<Fold>(fold),
                              std::forward<Combine>(combine), std::move(init),
                              threads);
}

}  // namespace cpm::util
