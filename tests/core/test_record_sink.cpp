#include "core/record_sink.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/trace_io.h"

namespace cpm::core {
namespace {

PicIntervalRecord pic_rec(std::size_t i) {
  PicIntervalRecord r;
  r.time_s = 5e-4 * static_cast<double>(i + 1);
  r.island = i % 2;
  r.target_w = 10.0 + static_cast<double>(i);
  r.sensed_w = r.target_w - 0.25;
  r.actual_w = r.target_w + 0.5;
  r.utilization = 0.5;
  r.bips = 1.0 + 0.1 * static_cast<double>(i);
  r.freq_ghz = 2.0;
  r.dvfs_level = 7;
  return r;
}

GpmIntervalRecord gpm_rec(std::size_t i) {
  GpmIntervalRecord r;
  r.time_s = 5e-3 * static_cast<double>(i + 1);
  r.island_alloc_w = {20.0, 22.0};
  r.island_actual_w = {19.0 + static_cast<double>(i), 21.0};
  r.island_bips = {3.0, 4.0};
  r.chip_actual_w = 40.0 + static_cast<double>(i);
  r.chip_budget_w = 45.0;
  r.chip_bips = 7.0 + 0.5 * static_cast<double>(i);
  r.max_temp_c = 60.0;
  return r;
}

TEST(RecordSink, InMemoryKeepsEverythingAndCountsSeen) {
  InMemorySink sink;
  for (std::size_t i = 0; i < 10; ++i) sink.record_pic(pic_rec(i));
  for (std::size_t i = 0; i < 5; ++i) sink.record_gpm(gpm_rec(i));
  SimulationResult result;
  sink.finish(result);
  EXPECT_EQ(result.pic_records.size(), 10u);
  EXPECT_EQ(result.gpm_records.size(), 5u);
  EXPECT_EQ(result.pic_records_seen, 10u);
  EXPECT_EQ(result.gpm_records_seen, 5u);
  EXPECT_DOUBLE_EQ(result.pic_records[3].target_w, 13.0);
  EXPECT_DOUBLE_EQ(result.gpm_records[4].chip_actual_w, 44.0);
}

TEST(RecordSink, RingKeepsTheMostRecentInTimeOrder) {
  BoundedSinkConfig cfg;
  cfg.pic_capacity = 4;
  cfg.gpm_capacity = 3;
  BoundedSink sink(cfg);
  for (std::size_t i = 0; i < 11; ++i) sink.record_pic(pic_rec(i));
  for (std::size_t i = 0; i < 7; ++i) sink.record_gpm(gpm_rec(i));
  SimulationResult result;
  sink.finish(result);

  ASSERT_EQ(result.pic_records.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    // Records 7, 8, 9, 10 survive, oldest first.
    EXPECT_DOUBLE_EQ(result.pic_records[i].target_w,
                     10.0 + static_cast<double>(7 + i));
  }
  ASSERT_EQ(result.gpm_records.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(result.gpm_records[i].chip_actual_w,
                     40.0 + static_cast<double>(4 + i));
  }
  EXPECT_EQ(result.pic_records_seen, 11u);
  EXPECT_EQ(result.gpm_records_seen, 7u);
}

TEST(RecordSink, RingBelowCapacityKeepsEverything) {
  BoundedSinkConfig cfg;
  cfg.pic_capacity = 64;
  cfg.gpm_capacity = 64;
  BoundedSink sink(cfg);
  for (std::size_t i = 0; i < 5; ++i) sink.record_pic(pic_rec(i));
  SimulationResult result;
  sink.finish(result);
  ASSERT_EQ(result.pic_records.size(), 5u);
  EXPECT_DOUBLE_EQ(result.pic_records[0].target_w, 10.0);
  EXPECT_DOUBLE_EQ(result.pic_records[4].target_w, 14.0);
}

TEST(RecordSink, DecimateSpansTheWholeRunWithinCapacity) {
  BoundedSinkConfig cfg;
  cfg.pic_capacity = 4;
  cfg.gpm_capacity = 4;
  cfg.policy = BoundedSinkConfig::Policy::kDecimate;
  BoundedSink sink(cfg);
  const std::size_t n = 100;
  for (std::size_t i = 0; i < n; ++i) sink.record_pic(pic_rec(i));
  SimulationResult result;
  sink.finish(result);

  ASSERT_LE(result.pic_records.size(), 4u);
  ASSERT_GE(result.pic_records.size(), 2u);
  // The first record always survives, and the retained set is the multiples
  // of a single power-of-two stride, so it spans the run uniformly.
  EXPECT_DOUBLE_EQ(result.pic_records[0].target_w, 10.0);
  std::vector<std::size_t> indices;
  for (const auto& r : result.pic_records) {
    indices.push_back(static_cast<std::size_t>(r.target_w - 10.0));
  }
  const std::size_t stride = indices.size() > 1 ? indices[1] : 1;
  EXPECT_EQ(stride & (stride - 1), 0u) << "stride must be a power of two";
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], i * stride);
  }
  // Coverage: the last retained record lies in the last stride-span of the
  // run (nothing older than one stride is missing from the tail).
  EXPECT_GE(indices.back() + stride, n - stride);
  EXPECT_EQ(result.pic_records_seen, n);
}

TEST(RecordSink, RejectsTinyCapacity) {
  BoundedSinkConfig cfg;
  cfg.pic_capacity = 1;
  EXPECT_THROW(BoundedSink{cfg}, std::invalid_argument);
}

TEST(RecordSink, AggregatesAreExactDespiteBoundedRetention) {
  BoundedSinkConfig cfg;
  cfg.pic_capacity = 2;
  cfg.gpm_capacity = 2;
  BoundedSink sink(cfg);
  const std::size_t n = 50;
  double sum = 0.0;
  std::vector<GpmIntervalRecord> all;
  for (std::size_t i = 0; i < n; ++i) {
    const GpmIntervalRecord r = gpm_rec(i);
    sum += r.chip_actual_w;
    all.push_back(r);
    sink.record_gpm(r);
  }
  SimulationResult result;
  sink.finish(result);
  EXPECT_EQ(result.gpm_records.size(), 2u);

  EXPECT_EQ(sink.gpm_power_stats().count(), n);
  EXPECT_NEAR(sink.gpm_power_stats().mean(), sum / static_cast<double>(n),
              1e-9);
  const ChipTrackingMetrics batch = chip_tracking_metrics(all);
  const ChipTrackingMetrics streamed = sink.tracking().metrics();
  EXPECT_NEAR(streamed.max_overshoot, batch.max_overshoot, 1e-12);
  EXPECT_NEAR(streamed.max_undershoot, batch.max_undershoot, 1e-12);
  EXPECT_NEAR(streamed.mean_abs_error, batch.mean_abs_error, 1e-12);
  EXPECT_NEAR(streamed.mean_power_w, batch.mean_power_w, 1e-12);
}

TEST(RecordSink, StreamingCsvRoundTripsThroughTraceIo) {
  std::ostringstream pic_out, gpm_out;
  StreamingSink sink(pic_out, gpm_out);
  for (std::size_t i = 0; i < 6; ++i) sink.record_pic(pic_rec(i));
  for (std::size_t i = 0; i < 3; ++i) sink.record_gpm(gpm_rec(i));
  SimulationResult result;
  sink.finish(result);
  EXPECT_TRUE(result.pic_records.empty());
  EXPECT_TRUE(result.gpm_records.empty());
  EXPECT_EQ(result.pic_records_seen, 6u);

  std::istringstream pic_in(pic_out.str()), gpm_in(gpm_out.str());
  const auto pics = read_pic_trace_csv(pic_in);
  const auto gpms = read_gpm_trace_csv(gpm_in);
  ASSERT_EQ(pics.size(), 6u);
  ASSERT_EQ(gpms.size(), 3u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(pics[i].target_w, 10.0 + static_cast<double>(i), 1e-9);
    EXPECT_EQ(pics[i].island, i % 2);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(gpms[i].chip_actual_w, 40.0 + static_cast<double>(i), 1e-9);
    ASSERT_EQ(gpms[i].island_alloc_w.size(), 2u);
    EXPECT_NEAR(gpms[i].island_alloc_w[1], 22.0, 1e-9);
  }
}

TEST(RecordSink, StreamingCsvEmptyRunStillWritesHeaders) {
  std::ostringstream pic_out, gpm_out;
  StreamingSink sink(pic_out, gpm_out);
  SimulationResult result;
  sink.finish(result);
  std::istringstream pic_in(pic_out.str()), gpm_in(gpm_out.str());
  EXPECT_TRUE(read_pic_trace_csv(pic_in).empty());
  EXPECT_TRUE(read_gpm_trace_csv(gpm_in).empty());
}

// A stream whose every write fails, as on a full disk.
struct FailingBuf : std::streambuf {};

TEST(RecordSink, StreamingThrowsNamingTheFailedStream) {
  for (const bool pic_fails : {true, false}) {
    FailingBuf broken;
    std::ostringstream good;
    std::ostream bad(&broken);
    StreamingSink sink(pic_fails ? bad : good, pic_fails ? good : bad);
    sink.record_pic(pic_rec(0));
    sink.record_gpm(gpm_rec(0));
    SimulationResult result;
    try {
      sink.finish(result);
      ADD_FAILURE() << "finish() accepted a failed stream";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(pic_fails ? "PIC" : "GPM"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(RecordSink, StreamingJsonlWritesOneObjectPerRecord) {
  std::ostringstream pic_out, gpm_out;
  StreamingSinkConfig cfg;
  cfg.format = StreamingSinkConfig::Format::kJsonl;
  StreamingSink sink(pic_out, gpm_out, cfg);
  for (std::size_t i = 0; i < 4; ++i) sink.record_pic(pic_rec(i));
  sink.record_gpm(gpm_rec(0));
  SimulationResult result;
  sink.finish(result);

  std::istringstream pic_in(pic_out.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(pic_in, line)) {
    EXPECT_NE(line.find("\"type\":\"pic\""), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 4u);
  EXPECT_NE(gpm_out.str().find("\"type\":\"gpm\""), std::string::npos);
  EXPECT_NE(gpm_out.str().find("\"alloc_w\":[20,22]"), std::string::npos);
}

TEST(RecordSink, FileSinkRejectsUnwritablePrefix) {
  EXPECT_THROW(make_streaming_file_sink("/nonexistent-dir/run"),
               std::runtime_error);
}

// --- integration: sinks plugged into a real simulation -------------------

TEST(RecordSinkIntegration, ExplicitInMemoryMatchesDefault) {
  Simulation default_sim(default_config());
  const SimulationResult ref = default_sim.run(0.05);

  InMemorySink sink;
  Simulation sim(default_config());
  const SimulationResult res = sim.run(0.05, sink);
  ASSERT_EQ(res.pic_records.size(), ref.pic_records.size());
  ASSERT_EQ(res.gpm_records.size(), ref.gpm_records.size());
  EXPECT_EQ(res.gpm_records_seen, ref.gpm_records_seen);
  for (std::size_t i = 0; i < res.pic_records.size(); i += 37) {
    EXPECT_DOUBLE_EQ(res.pic_records[i].actual_w, ref.pic_records[i].actual_w);
  }
  EXPECT_DOUBLE_EQ(res.total_instructions, ref.total_instructions);
}

TEST(RecordSinkIntegration, BoundedRetentionHoldsOverManyGpmWindows) {
  // 0.15 s = 30 GPM windows and 300 PIC invocations x 4 islands: well past
  // both capacities, so retention must cap while "seen" keeps counting and
  // the streaming aggregates stay equal to the full in-memory trace.
  BoundedSinkConfig cfg;
  cfg.pic_capacity = 32;
  cfg.gpm_capacity = 8;

  for (const auto policy : {BoundedSinkConfig::Policy::kKeepLast,
                            BoundedSinkConfig::Policy::kDecimate}) {
    cfg.policy = policy;
    BoundedSink sink(cfg);
    Simulation sim(default_config());
    const SimulationResult res = sim.run(0.15, sink);

    InMemorySink full_sink;
    Simulation full_sim(default_config());
    const SimulationResult full = full_sim.run(0.15, full_sink);

    EXPECT_LE(res.pic_records.size(), cfg.pic_capacity);
    EXPECT_LE(res.gpm_records.size(), cfg.gpm_capacity);
    EXPECT_EQ(res.pic_records_seen, full.pic_records.size());
    EXPECT_EQ(res.gpm_records_seen, full.gpm_records.size());
    EXPECT_GT(res.gpm_records_seen, cfg.gpm_capacity);

    // Same seeded run: the bounded sink's aggregates over *all* records must
    // match the full trace to 1e-9.
    double sum = 0.0;
    for (const auto& g : full.gpm_records) sum += g.chip_actual_w;
    EXPECT_NEAR(sink.gpm_power_stats().mean(),
                sum / static_cast<double>(full.gpm_records.size()), 1e-9);
    const ChipTrackingMetrics batch = chip_tracking_metrics(full.gpm_records);
    const ChipTrackingMetrics streamed = sink.tracking().metrics();
    EXPECT_NEAR(streamed.max_overshoot, batch.max_overshoot, 1e-9);
    EXPECT_NEAR(streamed.mean_abs_error, batch.mean_abs_error, 1e-9);
    // Run-level aggregates are sink-independent.
    EXPECT_DOUBLE_EQ(res.total_instructions, full.total_instructions);
    EXPECT_DOUBLE_EQ(res.avg_chip_power_w, full.avg_chip_power_w);
  }
}

TEST(RecordSinkIntegration, StreamedCsvEqualsInMemoryTrace) {
  std::ostringstream pic_out, gpm_out;
  StreamingSink sink(pic_out, gpm_out);
  Simulation sim(default_config());
  const SimulationResult res = sim.run(0.05, sink);
  EXPECT_TRUE(res.pic_records.empty());

  Simulation full_sim(default_config());
  const SimulationResult full = full_sim.run(0.05);

  std::istringstream pic_in(pic_out.str()), gpm_in(gpm_out.str());
  const auto pics = read_pic_trace_csv(pic_in);
  const auto gpms = read_gpm_trace_csv(gpm_in);
  ASSERT_EQ(pics.size(), full.pic_records.size());
  ASSERT_EQ(gpms.size(), full.gpm_records.size());
  for (std::size_t i = 0; i < pics.size(); i += 53) {
    EXPECT_NEAR(pics[i].actual_w, full.pic_records[i].actual_w, 1e-6);
    EXPECT_NEAR(pics[i].time_s, full.pic_records[i].time_s, 1e-12);
  }
  for (std::size_t i = 0; i < gpms.size(); ++i) {
    EXPECT_NEAR(gpms[i].chip_actual_w, full.gpm_records[i].chip_actual_w,
                1e-6);
  }
}

}  // namespace
}  // namespace cpm::core
