#include "util/metrics.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <sstream>
#include <thread>
#include <vector>

#include "util/json.h"

namespace cpm::util {
namespace {

RunningStats stats_of(std::initializer_list<double> xs) {
  RunningStats s;
  for (const double x : xs) s.add(x);
  return s;
}

TEST(MetricsRegistry, CounterAndHistogramBasics) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  c.add();
  c.add(4);
  reg.add("c", 2);
  EXPECT_EQ(c.value(), 7u);
  EXPECT_EQ(reg.counter_value("c"), 7u);
  EXPECT_EQ(reg.counter_value("absent"), 0u);

  // Merging two runs' stats equals observing every sample in one.
  reg.merge("h", stats_of({1.0, 2.0}));
  reg.merge("h", stats_of({3.0}));
  std::ostringstream out;
  reg.write_json(out);
  const json::Value doc = json::parse(out.str());
  const json::Value* h = doc.find("histograms")->find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->find("count")->number, 3.0);
  EXPECT_DOUBLE_EQ(h->find("mean")->number, 2.0);
  EXPECT_DOUBLE_EQ(h->find("min")->number, 1.0);
  EXPECT_DOUBLE_EQ(h->find("max")->number, 3.0);
  EXPECT_DOUBLE_EQ(h->find("sum")->number, 6.0);
}

TEST(MetricsRegistry, EmptyPublishCreatesNoMetric) {
  // A run that never invoked a PIC publishes a zero count and empty stats;
  // neither may create an entry (a NoDVFS run shows no pic.invocations).
  MetricsRegistry reg;
  reg.add("pic.invocations", 0);
  reg.merge("pic.abs_error_pct", RunningStats{});
  std::ostringstream out;
  reg.write_json(out);
  EXPECT_EQ(out.str(), "{\"counters\":{},\"histograms\":{}}\n");
}

TEST(MetricsRegistry, LookupReturnsStableObjects) {
  MetricsRegistry reg;
  Counter& first = reg.counter("same");
  Counter& second = reg.counter("same");
  EXPECT_EQ(&first, &second);
  first.add(3);
  EXPECT_EQ(second.value(), 3u);
}

TEST(MetricsRegistry, ResetZeroesButKeepsReferencesValid) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  c.add(7);
  reg.merge("h", stats_of({1.0}));
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add();  // the cached reference still points at the live metric
  EXPECT_EQ(reg.counter_value("c"), 1u);
  reg.merge("h", stats_of({5.0}));  // a reset histogram restarts from empty
  std::ostringstream out;
  reg.write_json(out);
  const json::Value doc = json::parse(out.str());
  const json::Value* h = doc.find("histograms")->find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->find("count")->number, 1.0);
  EXPECT_DOUBLE_EQ(h->find("mean")->number, 5.0);
}

TEST(MetricsRegistry, WriteJsonIsParseableAndSorted) {
  MetricsRegistry reg;
  reg.counter("b.count").add(2);
  reg.counter("a.count").add(1);
  reg.merge("err", stats_of({1.5, 2.5}));

  std::ostringstream out;
  reg.write_json(out);
  const json::Value doc = json::parse(out.str());
  const json::Value* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->object.size(), 2u);
  EXPECT_EQ(counters->object[0].first, "a.count");  // std::map order
  EXPECT_EQ(counters->object[1].first, "b.count");
  EXPECT_DOUBLE_EQ(counters->find("b.count")->number, 2.0);
  EXPECT_EQ(doc.find("gauges"), nullptr);
  const json::Value* err = doc.find("histograms")->find("err");
  ASSERT_NE(err, nullptr);
  EXPECT_DOUBLE_EQ(err->find("count")->number, 2.0);
  EXPECT_DOUBLE_EQ(err->find("mean")->number, 2.0);
}

// Run under TSan (scripts/verify.sh) this doubles as the data-race check
// for the lock-free counter path and the mutex-guarded merge.
TEST(MetricsRegistry, ConcurrentPublishersLoseNothing) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg] {
      // Cached-reference increments race registry lookups and merges, as
      // finishing runs on pool workers do.
      Counter& c = reg.counter("hits");
      for (int i = 0; i < kOps; ++i) {
        c.add();
        reg.add("hits", 1);
        reg.merge("vals", stats_of({static_cast<double>(i)}));
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(reg.counter_value("hits"), std::uint64_t{2 * kThreads * kOps});
  std::ostringstream out;
  reg.write_json(out);
  const json::Value doc = json::parse(out.str());
  const json::Value* vals = doc.find("histograms")->find("vals");
  ASSERT_NE(vals, nullptr);
  EXPECT_DOUBLE_EQ(vals->find("count")->number,
                   static_cast<double>(kThreads * kOps));
  EXPECT_DOUBLE_EQ(vals->find("max")->number, static_cast<double>(kOps - 1));
}

TEST(MetricsRegistry, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

}  // namespace
}  // namespace cpm::util
