#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/metrics.h"
#include "util/parallel.h"

namespace cpm::util {
namespace {

TEST(ThreadPool, RunBatchCoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ThreadPool::global().run_batch(hits.size(), 8, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, InlinePathsCoverEveryIndexInOrder) {
  // parallelism <= 1 and count == 1 both run inline on the calling thread.
  std::vector<std::size_t> order;
  ThreadPool::global().run_batch(4, 1,
                                 [&order](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
  ThreadPool::global().run_batch(1, 8,
                                 [&order](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order.size(), 5u);
  ThreadPool::global().run_batch(0, 8, [&order](std::size_t i) {
    order.push_back(i);
  });
  EXPECT_EQ(order.size(), 5u);
}

TEST(ThreadPool, WorkersGrowOnDemandAndPersist) {
  ThreadPool pool;
  EXPECT_EQ(pool.worker_count(), 0u);  // lazy: no threads before first batch
  std::atomic<int> n{0};
  pool.run_batch(16, 3, [&n](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 16);
  const std::size_t after_three = pool.worker_count();
  EXPECT_GE(after_three, 1u);
  EXPECT_LE(after_three, 2u);  // 3-way parallelism = submitter + 2 helpers
  pool.run_batch(16, 5, [&n](std::size_t) { n.fetch_add(1); });
  EXPECT_GE(pool.worker_count(), after_three);  // grows, never shrinks
  EXPECT_LE(pool.worker_count(), 4u);
}

TEST(ThreadPool, ExceptionPropagatesAndBatchTerminates) {
  std::atomic<std::size_t> executed{0};
  bool returned_normally = false;
  try {
    ThreadPool::global().run_batch(256, 8, [&executed](std::size_t i) {
      if (i == 0) throw std::runtime_error("first");
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    returned_normally = true;
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // The throw must replace the return: a batch with a failed task can never
  // look like a completed one (the pre-pool dispatcher could silently skip a
  // claimed index and leave its default-constructed slot in the output).
  EXPECT_FALSE(returned_normally);
  EXPECT_LT(executed.load(), 256u);
}

TEST(ThreadPool, FirstErrorWinsWhenEveryTaskThrows) {
  try {
    ThreadPool::global().run_batch(64, 4, [](std::size_t i) {
      throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "batch with throwing tasks returned normally";
  } catch (const std::runtime_error& e) {
    // Exactly one of the 64 exceptions surfaces, unchanged.
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("task ", 0), 0u) << what;
  }
}

TEST(ThreadPool, SerialInlineFallbackStillPropagates) {
  EXPECT_THROW(ThreadPool::global().run_batch(
                   4, 1, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
}

TEST(ThreadPool, NestedSubmissionFromSubmitterTaskRunsInline) {
  // Index 0 of the outer batch runs on the submitting thread (it claims
  // first); a nested batch from inside any task -- submitter or worker --
  // must run inline rather than deadlock on the pool's one-batch-at-a-time
  // submission lock.
  std::atomic<int> inner_total{0};
  ThreadPool::global().run_batch(8, 4, [&inner_total](std::size_t) {
    ThreadPool::global().run_batch(16, 4, [&inner_total](std::size_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ThreadPool, NestedParallelPrimitivesStayCorrect) {
  const auto out = parallel_map<int>(
      6,
      [](std::size_t i) {
        const auto inner = parallel_map<int>(
            10, [](std::size_t j) { return static_cast<int>(j); }, 4);
        int sum = 0;
        for (const int v : inner) sum += v;
        return sum + static_cast<int>(i);
      },
      4);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], 45 + static_cast<int>(i));
  }
}

TEST(ThreadPool, OnWorkerThreadVisibleInsidePoolTasks) {
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  std::atomic<int> saw_worker{0};
  ThreadPool::global().run_batch(64, 8, [&saw_worker](std::size_t) {
    if (ThreadPool::on_worker_thread()) saw_worker.fetch_add(1);
  });
  // Every task sees itself on a worker thread: helpers by construction, the
  // submitter because it is marked while participating.
  EXPECT_EQ(saw_worker.load(), 64);
  EXPECT_FALSE(ThreadPool::on_worker_thread());  // restored after the batch
}

TEST(ThreadPool, DestructorWaitsForInFlightBatch) {
  std::atomic<bool> started{false};
  std::atomic<std::size_t> done{0};
  std::thread submitter;
  {
    ThreadPool pool;
    submitter = std::thread([&pool, &started, &done] {
      pool.run_batch(64, 4, [&started, &done](std::size_t) {
        started.store(true, std::memory_order_relaxed);
        for (int spin = 0; spin < 20000; ++spin) {
          std::atomic_signal_fence(std::memory_order_seq_cst);  // keep the spin
        }
        done.fetch_add(1, std::memory_order_relaxed);
      });
    });
    while (!started.load(std::memory_order_relaxed)) std::this_thread::yield();
    // Pool goes out of scope with the batch demonstrably in flight: the
    // destructor must wait for all 64 tasks, then join its workers.
  }
  submitter.join();
  EXPECT_EQ(done.load(), 64u);
}

TEST(ThreadPool, ConcurrentSubmittersSerializeFifoAndAllComplete) {
  ThreadPool pool;
  std::atomic<int> total{0};
  std::vector<std::thread> submitters;
  submitters.reserve(4);
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&pool, &total] {
      for (int round = 0; round < 8; ++round) {
        pool.run_batch(32, 4, [&total](std::size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& s : submitters) s.join();
  EXPECT_EQ(total.load(), 4 * 8 * 32);
}

TEST(ThreadPool, PoolMetricsAdvanceAcrossBatches) {
  MetricsRegistry& registry = MetricsRegistry::global();
  const std::uint64_t batches_before = registry.counter_value("pool.batches");
  const std::uint64_t wakeups_before = registry.counter_value("pool.wakeups");
  std::atomic<int> n{0};
  ThreadPool::global().run_batch(128, 8,
                                 [&n](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(registry.counter_value("pool.batches"), batches_before + 1);
  EXPECT_GE(registry.counter_value("pool.wakeups"), wakeups_before);
}

// --- Determinism: bit-equality across thread counts for every primitive ---

TEST(ThreadPoolDeterminism, MapBitIdenticalAt1_2_16Threads) {
  const auto run = [](std::size_t threads) {
    return parallel_map<double>(
        301,
        [](std::size_t i) {
          double acc = 1.0;
          for (std::size_t k = 0; k < (i % 17) + 1; ++k) {
            acc = acc * 1.0000001 + static_cast<double>(i);
          }
          return acc;
        },
        threads);
  };
  const auto one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(16));
}

// --- CPM_THREADS environment override ---

class CpmThreadsEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* raw = std::getenv("CPM_THREADS");
    if (raw != nullptr) saved_ = raw;
    had_ = raw != nullptr;
  }
  void TearDown() override {
    if (had_) {
      ::setenv("CPM_THREADS", saved_.c_str(), 1);
    } else {
      ::unsetenv("CPM_THREADS");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST_F(CpmThreadsEnv, OverridesDefaultThreadCount) {
  ::setenv("CPM_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3u);
  ::setenv("CPM_THREADS", "12", 1);
  EXPECT_EQ(default_thread_count(), 12u);
}

TEST_F(CpmThreadsEnv, ClampsToCallerWindowAndWorkerCap) {
  ::setenv("CPM_THREADS", "12", 1);
  EXPECT_EQ(default_thread_count(4), 4u);  // caller max wins
  ::setenv("CPM_THREADS", "100000", 1);
  EXPECT_EQ(default_thread_count(), 16u);  // default window
  EXPECT_EQ(default_thread_count(ThreadPool::kMaxWorkers),
            ThreadPool::kMaxWorkers);  // hard cap
}

TEST_F(CpmThreadsEnv, IgnoresUnsetEmptyAndGarbage) {
  ::unsetenv("CPM_THREADS");
  const std::size_t fallback = default_thread_count();
  EXPECT_GE(fallback, 1u);
  ::setenv("CPM_THREADS", "", 1);
  EXPECT_EQ(default_thread_count(), fallback);
  ::setenv("CPM_THREADS", "eight", 1);
  EXPECT_EQ(default_thread_count(), fallback);
  ::setenv("CPM_THREADS", "8x", 1);
  EXPECT_EQ(default_thread_count(), fallback);
  ::setenv("CPM_THREADS", "0", 1);
  EXPECT_EQ(default_thread_count(), fallback);
  ::setenv("CPM_THREADS", "-1", 1);
  EXPECT_EQ(default_thread_count(), fallback);
  ::setenv("CPM_THREADS", "+2", 1);
  EXPECT_EQ(default_thread_count(), fallback);
}

}  // namespace
}  // namespace cpm::util
