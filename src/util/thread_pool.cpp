#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "util/metrics.h"
#include "util/trace.h"

namespace cpm::util {

namespace {

/// Set for the lifetime of every pool worker thread; run_batch reads it to
/// detect reentrant submission and fall back to inline execution.
thread_local bool t_pool_worker = false;

/// Parses a positive integer from CPM_THREADS; 0 = unset or unparseable
/// (fall back to hardware concurrency). Values are later clamped to the
/// caller's [1, max_threads] window, so absurd settings degrade gracefully.
std::size_t env_thread_override() noexcept {
  const char* raw = std::getenv("CPM_THREADS");
  // strtoull would accept a sign (and wrap "-1" to a huge count), so demand
  // a digit first.
  if (raw == nullptr || *raw < '0' || *raw > '9') return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  if (end == raw || (end != nullptr && *end != '\0')) return 0;
  return static_cast<std::size_t>(
      std::min<unsigned long long>(v, ThreadPool::kMaxWorkers));
}

}  // namespace

std::size_t default_thread_count(std::size_t max_threads) noexcept {
  std::size_t threads = env_thread_override();
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : static_cast<std::size_t>(hw);
  }
  return std::clamp<std::size_t>(threads, 1,
                                 std::max<std::size_t>(1, max_threads));
}

ThreadPool& ThreadPool::global() {
  // Touch the metrics registry first so its static outlives the pool's:
  // workers publish counters until the moment they are joined.
  MetricsRegistry::global();
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::on_worker_thread() noexcept { return t_pool_worker; }

std::size_t ThreadPool::worker_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

ThreadPool::~ThreadPool() {
  // Wait out any in-flight submission, then stop: run_batch_impl holds
  // submit_mutex_ for the whole batch, so acquiring it here means the pool
  // is idle and batch_ is null.
  std::lock_guard<std::mutex> submit(submit_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::ensure_workers_locked(std::size_t target) {
  target = std::min(target, kMaxWorkers);
  while (workers_.size() < target) {
    try {
      workers_.emplace_back([this] { worker_loop(); });
    } catch (...) {
      break;  // resource exhaustion: run with the workers we have
    }
  }
}

void ThreadPool::worker_loop() {
  t_pool_worker = true;
  static Counter& wakeups =
      MetricsRegistry::global().counter("pool.wakeups");
  std::uint64_t seen_generation = 0;
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      {
        // Parked time as a "pool"-category span: an execution detail that
        // the trace-equivalence contract explicitly excludes (a scope
        // constructed while no session is active stays inert even if one
        // starts before the wake).
        CPM_TRACE_SCOPE("pool", "pool.park");
        work_cv_.wait(lock, [this, seen_generation] {
          return stop_ || (batch_ != nullptr && generation_ != seen_generation);
        });
      }
      if (stop_) return;
      seen_generation = generation_;
      batch = batch_;
      ++in_flight_;
    }
    wakeups.add();
    work_on(*batch);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::work_on(Batch& batch) {
  for (;;) {
    const bool error = batch.has_error.load(std::memory_order_acquire);
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.count) return;
    if (error) continue;  // explicit drain: claim and skip, never execute
    try {
      batch.invoke(batch.ctx, i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!batch.first_error) batch.first_error = std::current_exception();
      batch.has_error.store(true, std::memory_order_release);
    }
  }
}

void ThreadPool::run_batch_impl(std::size_t count, std::size_t parallelism,
                                void (*invoke)(void*, std::size_t),
                                void* ctx) {
  static Counter& batch_counter =
      MetricsRegistry::global().counter("pool.batches");

  Batch batch;
  batch.invoke = invoke;
  batch.ctx = ctx;
  batch.count = count;

  // One batch at a time: submissions from distinct threads queue up here in
  // FIFO order, and the destructor uses this mutex to wait out in-flight
  // work. Helpers beyond the calling thread are capped by the request, the
  // task count, and the pool's hard worker cap.
  std::lock_guard<std::mutex> submit(submit_mutex_);
  const std::size_t helpers =
      std::min({parallelism - 1, count - 1, kMaxWorkers});
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ensure_workers_locked(helpers);
    if (workers_.empty()) {
      // Could not spawn anything (resource exhaustion): run inline.
      for (std::size_t i = 0; i < count; ++i) invoke(ctx, i);
      return;
    }
    batch_ = &batch;
    ++generation_;
    in_flight_ = 1;  // the submitting thread participates
  }
  batch_counter.add();
  for (std::size_t w = 0; w < helpers; ++w) work_cv_.notify_one();

  // The submitting thread participates as a worker, and must look like one
  // while it does: a nested run_batch from one of its own tasks would
  // otherwise re-lock submit_mutex_ on this same thread and self-deadlock.
  // run_batch's guard already rejects submission *from* a worker, so the
  // flag is guaranteed false here and restoring to false is exact.
  t_pool_worker = true;
  work_on(batch);
  t_pool_worker = false;

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    --in_flight_;
    done_cv_.wait(lock, [this] { return in_flight_ == 0; });
    batch_ = nullptr;  // late wakers must not re-join a completed batch
    error = batch.first_error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace cpm::util
