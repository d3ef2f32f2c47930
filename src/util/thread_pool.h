// Persistent deterministic worker pool: the execution engine behind the
// parallel primitives in util/parallel.h. Before this pool existed every
// parallel call spawned and joined fresh std::threads, so a 10k-epoch
// cluster run created ~160k OS threads and each dispatch paid thread-spawn
// latency (~100 us and up). The pool keeps workers parked on a
// condition variable between batches, so a dispatch costs a few condvar
// wakes (~1-5 us) instead -- measured by BM_ParallelDispatch* in
// bench_overhead_micro.
//
// Design constraints, in order:
//
//   * Determinism is owned by the callers. The pool never decides *what* runs
//     or combines any result -- each task writes only its own slot, every
//     reduction and reproducible RNG draw runs on the calling thread in index
//     order (util/parallel.h), and the pool merely executes index claims.
//     Nothing here may read clocks or entropy (the cpm_lint determinism
//     family enforces that: thread_pool.{h,cpp} are NOT approved ambient
//     sites).
//   * No type erasure on the dispatch path. run_batch is templated on the
//     callable and lowers it to one function pointer + context pointer; there
//     is no std::function, no per-task allocation, and one indirect call per
//     task.
//   * Exception capture: the first exception thrown by any task is rethrown
//     on the submitting thread after the batch completes. Once an error is
//     observed, remaining indices are explicitly drained (claimed and
//     skipped) so the batch still terminates; the partial results are
//     discarded by the rethrow -- no silently default-constructed slots can
//     escape.
//   * Reentrancy: submitting from inside a pool task runs the nested batch
//     inline on the calling worker (serially, same per-task effects), so
//     nested parallelism can never deadlock the fixed-size pool.
//   * Clean shutdown: the destructor waits for any in-flight batch, then
//     joins every worker. The process-wide pool (ThreadPool::global()) is a
//     lazily-constructed static -- no threads exist until the first parallel
//     batch is submitted -- and tears down TSan-clean at exit.
//
// Observability: workers emit a "pool"-category park span around each wait
// (execution detail, excluded from the serial-vs-parallel trace-equivalence
// contract -- see docs/THREADING.md), a pool.batches counter counts
// dispatched batches, and a pool.wakeups counter counts worker wakes that
// found work.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace cpm::util {

/// Default worker-thread count for a parallel dispatch: the CPM_THREADS
/// environment variable when set (pins concurrency so cross-host numbers
/// are comparable), otherwise
/// std::thread::hardware_concurrency(); either way clamped to
/// [1, max_threads]. Re-read on every call so tests can repin; workers never
/// call this.
std::size_t default_thread_count(std::size_t max_threads = 16) noexcept;

class ThreadPool {
 public:
  /// Hard cap on workers a pool will ever own; explicit per-call thread
  /// requests above this are clamped.
  static constexpr std::size_t kMaxWorkers = 64;

  /// Starts with zero workers; they are spawned lazily, on first demand,
  /// and persist until destruction.
  ThreadPool() = default;
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool every parallel primitive dispatches through.
  /// Lazily constructed: no threads until the first batch.
  static ThreadPool& global();

  /// True when the calling thread is a worker of *any* ThreadPool -- the
  /// reentrancy guard run_batch uses to run nested batches inline.
  static bool on_worker_thread() noexcept;

  /// Workers currently spawned (grows on demand, never shrinks).
  std::size_t worker_count() const;

  /// Runs body(i) exactly once for every i in [0, count), using up to
  /// `parallelism` threads (the calling thread plus parked pool workers),
  /// and blocks until every claimed index has finished. With parallelism
  /// <= 1, from inside a pool task, or when no workers can be spawned, the
  /// batch runs inline on the calling thread in index order -- identical
  /// per-task effects, no pool traffic. `body` must be safe to invoke
  /// concurrently for distinct indices. If any invocation throws, the first
  /// exception (in claim order of observation) is rethrown here after the
  /// batch terminates; remaining indices are drained unexecuted.
  template <typename Body>
  void run_batch(std::size_t count, std::size_t parallelism, Body&& body) {
    if (count == 0) return;
    using Decayed = std::remove_reference_t<Body>;
    if (parallelism <= 1 || count == 1 || on_worker_thread()) {
      for (std::size_t i = 0; i < count; ++i) body(i);
      return;
    }
    run_batch_impl(
        count, parallelism,
        [](void* ctx, std::size_t i) { (*static_cast<Decayed*>(ctx))(i); },
        const_cast<void*>(static_cast<const void*>(std::addressof(body))));
  }

 private:
  /// One in-flight batch, owned by the submitting thread's stack. Workers
  /// only touch it between their join (in_flight increment) and leave
  /// (decrement), both under mutex_, so once in_flight is 0 and every index
  /// is claimed the submitter can safely destroy it.
  struct Batch {
    void (*invoke)(void*, std::size_t) = nullptr;
    void* ctx = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> has_error{false};
    std::exception_ptr first_error;  // guarded by ThreadPool::mutex_
  };

  void run_batch_impl(std::size_t count, std::size_t parallelism,
                      void (*invoke)(void*, std::size_t), void* ctx);
  void worker_loop();
  /// Claim-and-run loop shared by workers and the submitter.
  void work_on(Batch& batch);
  /// Spawns workers until `target` exist (capped; best-effort under
  /// resource exhaustion). Caller must hold mutex_.
  void ensure_workers_locked(std::size_t target);

  mutable std::mutex mutex_;         // guards everything below + Batch joins
  std::condition_variable work_cv_;  // workers park here between batches
  std::condition_variable done_cv_;  // submitter waits for in_flight == 0
  Batch* batch_ = nullptr;           // published batch (null = pool idle)
  std::uint64_t generation_ = 0;     // bumps per batch; workers join each once
  std::size_t in_flight_ = 0;        // workers (incl. submitter) inside work_on
  bool stop_ = false;
  std::vector<std::thread> workers_;
  std::mutex submit_mutex_;  // serializes top-level batches FIFO
};

}  // namespace cpm::util
