#include "core/trace_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "core/experiment.h"
#include "util/json.h"

namespace cpm::core {
namespace {

TEST(TraceIo, PicRoundTrip) {
  Simulation sim(default_config(0.8, 3));
  const SimulationResult res = sim.run(0.02);
  std::stringstream ss;
  write_pic_trace_csv(ss, res.pic_records);
  const auto parsed = read_pic_trace_csv(ss);
  ASSERT_EQ(parsed.size(), res.pic_records.size());
  for (std::size_t i = 0; i < parsed.size(); i += 13) {
    EXPECT_EQ(parsed[i].island, res.pic_records[i].island);
    EXPECT_NEAR(parsed[i].actual_w, res.pic_records[i].actual_w, 1e-6);
    EXPECT_NEAR(parsed[i].target_w, res.pic_records[i].target_w, 1e-6);
    EXPECT_EQ(parsed[i].dvfs_level, res.pic_records[i].dvfs_level);
  }
}

TEST(TraceIo, GpmRoundTrip) {
  Simulation sim(default_config(0.8, 3));
  const SimulationResult res = sim.run(0.02);
  std::stringstream ss;
  write_gpm_trace_csv(ss, res.gpm_records);
  const auto parsed = read_gpm_trace_csv(ss);
  ASSERT_EQ(parsed.size(), res.gpm_records.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_NEAR(parsed[i].chip_actual_w, res.gpm_records[i].chip_actual_w,
                1e-6);
    ASSERT_EQ(parsed[i].island_alloc_w.size(),
              res.gpm_records[i].island_alloc_w.size());
    EXPECT_NEAR(parsed[i].island_alloc_w[2],
                res.gpm_records[i].island_alloc_w[2], 1e-6);
  }
}

TEST(TraceIo, EmptyRecordsWriteHeaderOnly) {
  std::stringstream ss;
  write_gpm_trace_csv(ss, {});
  EXPECT_NE(ss.str().find("time_s"), std::string::npos);
  std::stringstream ss2;
  write_pic_trace_csv(ss2, {});
  const auto parsed = read_pic_trace_csv(ss2);
  EXPECT_TRUE(parsed.empty());
}

TEST(TraceIo, SummaryContainsKeyFields) {
  Simulation sim(default_config(0.8, 3));
  const SimulationResult res = sim.run(0.02);
  std::stringstream ss;
  write_summary_csv(ss, res);
  const std::string out = ss.str();
  EXPECT_NE(out.find("budget_w,"), std::string::npos);
  EXPECT_NE(out.find("total_instructions,"), std::string::npos);
  EXPECT_NE(out.find("island_3_energy_j,"), std::string::npos);
}

TEST(TraceIo, RejectsMalformedInput) {
  std::stringstream empty;
  EXPECT_THROW(read_pic_trace_csv(empty), std::runtime_error);

  std::stringstream bad_arity(
      "time_s,island,target_w,sensed_w,actual_w,utilization,bips,freq_ghz,level\n"
      "0.1,2,3\n");
  EXPECT_THROW(read_pic_trace_csv(bad_arity), std::runtime_error);

  std::stringstream bad_number(
      "time_s,island,target_w,sensed_w,actual_w,utilization,bips,freq_ghz,level\n"
      "a,b,c,d,e,f,g,h,i\n");
  EXPECT_THROW(read_pic_trace_csv(bad_number), std::runtime_error);

  std::stringstream bad_header("time_s,chip_budget_w\n");
  EXPECT_THROW(read_gpm_trace_csv(bad_header), std::runtime_error);

  // Every cell must be consumed whole; island and level are unsigned counts.
  const std::string pic_header =
      "time_s,island,target_w,sensed_w,actual_w,utilization,bips,freq_ghz,"
      "level\n";
  for (const char* row :
       {"0.5x,2,3,4,5,0.5,1,2,3\n", "0.5,2.7,3,4,5,0.5,1,2,3\n",
        "0.5,2,3,4,5,0.5,1,2,-1\n"}) {
    std::stringstream in(pic_header + row);
    EXPECT_THROW(read_pic_trace_csv(in), std::runtime_error) << row;
  }

  // A 2-island GPM trace has 9 columns, like a PIC trace; each reader must
  // refuse the other's header.
  GpmIntervalRecord gpm;
  gpm.island_alloc_w = {1.0, 2.0};
  gpm.island_actual_w = {1.0, 2.0};
  std::stringstream gpm_as_pic;
  write_gpm_trace_csv(gpm_as_pic, {gpm});
  EXPECT_THROW(read_pic_trace_csv(gpm_as_pic), std::runtime_error);
  std::stringstream pic_as_gpm;
  write_pic_trace_csv(pic_as_gpm, {PicIntervalRecord{}});
  EXPECT_THROW(read_gpm_trace_csv(pic_as_gpm), std::runtime_error);
}

TEST(TraceIo, NonFiniteValuesRoundTripAndJsonlStaysJson) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  PicIntervalRecord pic;
  pic.target_w = kNan;
  pic.sensed_w = kInf;
  pic.actual_w = -kInf;
  GpmIntervalRecord gpm;
  gpm.chip_actual_w = kNan;
  gpm.island_alloc_w = {kInf, 1.5};
  gpm.island_actual_w = {-kInf, kNan};
  const auto same = [](double x, double y) {
    return std::isnan(x) ? std::isnan(y) : x == y;
  };
  const auto expect_back = [&](const std::vector<PicIntervalRecord>& p,
                               const std::vector<GpmIntervalRecord>& g) {
    ASSERT_EQ(p.size(), 1u);
    EXPECT_TRUE(same(p[0].target_w, kNan) && same(p[0].sensed_w, kInf) &&
                same(p[0].actual_w, -kInf));
    ASSERT_EQ(g.size(), 1u);
    ASSERT_EQ(g[0].island_alloc_w.size(), 2u);
    ASSERT_EQ(g[0].island_actual_w.size(), 2u);
    EXPECT_TRUE(same(g[0].chip_actual_w, kNan) &&
                same(g[0].island_alloc_w[0], kInf) &&
                same(g[0].island_alloc_w[1], 1.5) &&
                same(g[0].island_actual_w[0], -kInf) &&
                same(g[0].island_actual_w[1], kNan));
  };

  std::stringstream pic_csv, gpm_csv;
  write_pic_trace_csv(pic_csv, {pic});
  write_gpm_trace_csv(gpm_csv, {gpm});
  expect_back(read_pic_trace_csv(pic_csv), read_gpm_trace_csv(gpm_csv));

  std::stringstream jsonl;
  write_pic_record_jsonl(jsonl, pic);
  write_gpm_record_jsonl(jsonl, gpm);
  std::stringstream lines(jsonl.str());
  for (std::string line; std::getline(lines, line);) {
    EXPECT_NO_THROW(util::json::parse(line)) << line;  // strict JSON
  }
  std::stringstream pic_in(jsonl.str()), gpm_in(jsonl.str());
  expect_back(read_pic_trace_jsonl(pic_in), read_gpm_trace_jsonl(gpm_in));
}

TEST(TraceIo, CsvRoundTripIsBitExact) {
  // Writers emit max_digits10 precision, so every serialized field must
  // round-trip without any loss at all (the fuzz harness relies on this).
  Simulation sim(default_config(0.8, 3));
  const SimulationResult res = sim.run(0.02);
  std::stringstream pic_ss, gpm_ss;
  write_pic_trace_csv(pic_ss, res.pic_records);
  write_gpm_trace_csv(gpm_ss, res.gpm_records);
  const auto pic = read_pic_trace_csv(pic_ss);
  const auto gpm = read_gpm_trace_csv(gpm_ss);
  ASSERT_EQ(pic.size(), res.pic_records.size());
  ASSERT_EQ(gpm.size(), res.gpm_records.size());
  for (std::size_t i = 0; i < pic.size(); ++i) {
    EXPECT_EQ(pic[i].time_s, res.pic_records[i].time_s);
    EXPECT_EQ(pic[i].sensed_w, res.pic_records[i].sensed_w);
    EXPECT_EQ(pic[i].actual_w, res.pic_records[i].actual_w);
    EXPECT_EQ(pic[i].utilization, res.pic_records[i].utilization);
    EXPECT_EQ(pic[i].freq_ghz, res.pic_records[i].freq_ghz);
  }
  for (std::size_t i = 0; i < gpm.size(); ++i) {
    EXPECT_EQ(gpm[i].chip_actual_w, res.gpm_records[i].chip_actual_w);
    EXPECT_EQ(gpm[i].island_alloc_w, res.gpm_records[i].island_alloc_w);
    EXPECT_EQ(gpm[i].island_actual_w, res.gpm_records[i].island_actual_w);
  }
}

TEST(TraceIo, JsonlRoundTripFromMixedStream) {
  // One interleaved JSONL stream (as StreamingSink would produce for a
  // single file) must split back into bit-exact PIC and GPM traces.
  Simulation sim(default_config(0.8, 3));
  const SimulationResult res = sim.run(0.02);
  std::stringstream mixed;
  for (const auto& r : res.gpm_records) write_gpm_record_jsonl(mixed, r);
  for (const auto& r : res.pic_records) write_pic_record_jsonl(mixed, r);
  std::stringstream pic_in(mixed.str()), gpm_in(mixed.str());
  const auto pic = read_pic_trace_jsonl(pic_in);
  const auto gpm = read_gpm_trace_jsonl(gpm_in);
  ASSERT_EQ(pic.size(), res.pic_records.size());
  ASSERT_EQ(gpm.size(), res.gpm_records.size());
  for (std::size_t i = 0; i < pic.size(); ++i) {
    EXPECT_EQ(pic[i].time_s, res.pic_records[i].time_s);
    EXPECT_EQ(pic[i].island, res.pic_records[i].island);
    EXPECT_EQ(pic[i].target_w, res.pic_records[i].target_w);
    EXPECT_EQ(pic[i].sensed_w, res.pic_records[i].sensed_w);
    EXPECT_EQ(pic[i].actual_w, res.pic_records[i].actual_w);
    EXPECT_EQ(pic[i].utilization, res.pic_records[i].utilization);
    EXPECT_EQ(pic[i].bips, res.pic_records[i].bips);
    EXPECT_EQ(pic[i].freq_ghz, res.pic_records[i].freq_ghz);
    EXPECT_EQ(pic[i].dvfs_level, res.pic_records[i].dvfs_level);
  }
  for (std::size_t i = 0; i < gpm.size(); ++i) {
    EXPECT_EQ(gpm[i].time_s, res.gpm_records[i].time_s);
    EXPECT_EQ(gpm[i].chip_budget_w, res.gpm_records[i].chip_budget_w);
    EXPECT_EQ(gpm[i].chip_actual_w, res.gpm_records[i].chip_actual_w);
    EXPECT_EQ(gpm[i].chip_bips, res.gpm_records[i].chip_bips);
    EXPECT_EQ(gpm[i].max_temp_c, res.gpm_records[i].max_temp_c);
    EXPECT_EQ(gpm[i].island_alloc_w, res.gpm_records[i].island_alloc_w);
    EXPECT_EQ(gpm[i].island_actual_w, res.gpm_records[i].island_actual_w);
    EXPECT_TRUE(gpm[i].island_bips.empty());  // not carried by the format
  }
}

TEST(TraceIo, JsonlReaderRejectsMalformedLines) {
  std::stringstream missing_key("{\"type\":\"pic\",\"time_s\":0.1}\n");
  EXPECT_THROW(read_pic_trace_jsonl(missing_key), std::runtime_error);
  std::stringstream bad_array(
      "{\"type\":\"gpm\",\"time_s\":0,\"chip_budget_w\":1,\"chip_actual_w\":1,"
      "\"chip_bips\":1,\"max_temp_c\":1,\"alloc_w\":[1,2,\"actual_w\":[1,2]}\n");
  EXPECT_THROW(read_gpm_trace_jsonl(bad_array), std::runtime_error);
  std::stringstream unclosed(
      "{\"type\":\"pic\",\"time_s\":0.1,\"island\":0,\"target_w\":1,"
      "\"sensed_w\":1,\"actual_w\":1,\"utilization\":1,\"bips\":1,"
      "\"freq_ghz\":1,\"level\":3\n");
  EXPECT_THROW(read_pic_trace_jsonl(unclosed), std::runtime_error);
  std::stringstream junk_number(
      "{\"type\":\"pic\",\"time_s\":1junk,\"island\":0,\"target_w\":1,"
      "\"sensed_w\":1,\"actual_w\":1,\"utilization\":1,\"bips\":1,"
      "\"freq_ghz\":1,\"level\":3}\n");
  EXPECT_THROW(read_pic_trace_jsonl(junk_number), std::runtime_error);
}

}  // namespace
}  // namespace cpm::core
