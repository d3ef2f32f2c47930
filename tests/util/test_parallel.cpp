#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace cpm::util {
namespace {

TEST(Parallel, EmptyRange) {
  const auto out = parallel_map<int>(0, [](std::size_t) { return 1; });
  EXPECT_TRUE(out.empty());
}

TEST(Parallel, ResultsInIndexOrder) {
  const auto out =
      parallel_map<std::size_t>(1000, [](std::size_t i) { return i * i; }, 8);
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], i * i);
}

TEST(Parallel, MatchesSerialExecution) {
  auto fn = [](std::size_t i) { return static_cast<double>(i) * 1.5 + 2.0; };
  const auto serial = parallel_map<double>(257, fn, 1);
  const auto parallel = parallel_map<double>(257, fn, 8);
  EXPECT_EQ(serial, parallel);
}

TEST(Parallel, SingleThreadFallback) {
  const auto out = parallel_map<int>(5, [](std::size_t i) {
    return static_cast<int>(i) + 1;
  }, 1);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Parallel, MoreThreadsThanWork) {
  const auto out =
      parallel_map<int>(3, [](std::size_t i) { return static_cast<int>(i); },
                        32);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
}

TEST(Parallel, PropagatesExceptions) {
  EXPECT_THROW(parallel_map<int>(100,
                                 [](std::size_t i) -> int {
                                   if (i == 57) {
                                     throw std::runtime_error("boom");
                                   }
                                   return 0;
                                 },
                                 4),
               std::runtime_error);
}

TEST(Parallel, DefaultThreadCountSane) {
  EXPECT_GE(default_thread_count(), 1u);
  EXPECT_LE(default_thread_count(4), 4u);
  EXPECT_GE(default_thread_count(1), 1u);
}

TEST(Parallel, WorkerCountFollowsTasksThreadsAndNesting) {
  EXPECT_EQ(parallel_workers(3, 8), 3u);
  EXPECT_EQ(parallel_workers(100, 4), 4u);
  EXPECT_EQ(parallel_workers(100, 0),
            std::min<std::size_t>(100, default_thread_count()));
  EXPECT_EQ(parallel_workers(0, 4), 0u);
  // Inside a pool task a nested batch runs inline: one worker.
  std::vector<std::size_t> nested(8, 0);
  ThreadPool::global().run_batch(8, 4, [&nested](std::size_t i) {
    nested[i] = parallel_workers(100, 4);
  });
  for (const std::size_t w : nested) EXPECT_EQ(w, 1u);
}

TEST(ShardPlan, CoversRangeExactlyOnce) {
  const ShardPlan plan{103, 16};
  ASSERT_EQ(plan.num_shards(), 7u);
  std::size_t covered = 0;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    EXPECT_EQ(plan.begin(s), covered);
    EXPECT_GT(plan.end(s), plan.begin(s));
    covered = plan.end(s);
  }
  EXPECT_EQ(covered, 103u);
  EXPECT_EQ(ShardPlan{0}.num_shards(), 0u);
}

TEST(ShardStream, DependsOnlyOnSeedAndShard) {
  Xoshiro256pp a = shard_stream(42, 3);
  Xoshiro256pp b = shard_stream(42, 3);
  for (int k = 0; k < 64; ++k) ASSERT_EQ(a(), b());
  // Neighbouring shards and different seeds give different streams.
  Xoshiro256pp c = shard_stream(42, 4);
  Xoshiro256pp d = shard_stream(43, 3);
  Xoshiro256pp e = shard_stream(42, 3);
  EXPECT_NE(c(), e());
  EXPECT_NE(d(), e());
}

TEST(ParallelForShards, RunsEachShardOnceRethrowsAndRejectsZeroShardSize) {
  // Every shard runs exactly once, on any thread count.
  const ShardPlan plan{103, 16};
  for (const std::size_t threads : {1u, 4u}) {
    std::vector<std::atomic<int>> runs(plan.num_shards());
    parallel_for_shards(plan, threads,
                        [&runs](std::size_t s) { runs[s].fetch_add(1); });
    for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
  }
  // The first exception a task throws is rethrown: run serially, shard 2
  // throws first and shard 5 never gets the chance.
  try {
    parallel_for_shards(plan, 1, [](std::size_t s) {
      if (s == 2 || s == 5) {
        throw std::runtime_error("shard " + std::to_string(s));
      }
    });
    FAIL() << "a throwing shard returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 2");
  }
  EXPECT_THROW(parallel_for_shards(ShardPlan{100, 4}, 4,
                                   [](std::size_t) {
                                     throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  // A zero shard size would cover nothing; an empty range is still fine.
  bool ran = false;
  EXPECT_THROW(parallel_for_shards(ShardPlan{100, 0}, 4,
                                   [&ran](std::size_t) { ran = true; }),
               std::invalid_argument);
  EXPECT_FALSE(ran);
  parallel_for_shards(ShardPlan{0, 0}, 4, [&ran](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Parallel, HeavyWorkloadAggregates) {
  const auto out = parallel_map<double>(64, [](std::size_t i) {
    double acc = 0.0;
    for (int k = 0; k < 10000; ++k) {
      acc += static_cast<double>((i * 31 + static_cast<std::size_t>(k)) % 7);
    }
    return acc;
  });
  const double total = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_GT(total, 0.0);
  // Re-run must reproduce exactly (determinism under threading).
  const auto out2 = parallel_map<double>(64, [](std::size_t i) {
    double acc = 0.0;
    for (int k = 0; k < 10000; ++k) {
      acc += static_cast<double>((i * 31 + static_cast<std::size_t>(k)) % 7);
    }
    return acc;
  });
  EXPECT_EQ(out, out2);
}

}  // namespace
}  // namespace cpm::util
