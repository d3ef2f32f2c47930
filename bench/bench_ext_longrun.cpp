// Extension: long-horizon runs with bounded-memory record sinks. The paper's
// evaluations run seconds of simulated time, where keeping every PIC/GPM
// record in memory is fine; a deployment-scale sweep (hours of simulated
// time, many chips) is not. This bench runs the same seeded simulation
// through all four sinks -- in-memory, ring buffer, stride-doubling
// decimation, and streaming CSV -- and checks that (a) resident record
// counts stay at/below the configured capacity regardless of duration,
// (b) every sink's streaming aggregates (mean power, tracking metrics)
// match the full in-memory trace to 1e-9, and (c) the streamed CSV holds
// the complete trace.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"
#include "core/record_sink.h"
#include "core/trace_io.h"

namespace {

double mean_power(const std::vector<cpm::core::GpmIntervalRecord>& records) {
  double sum = 0.0;
  for (const auto& r : records) sum += r.chip_actual_w;
  return records.empty() ? 0.0 : sum / static_cast<double>(records.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cpm;
  // Default 2 s keeps the bench quick; pass a longer duration (e.g. 30) to
  // stress the bounded-memory guarantee harder -- the retained counts below
  // stay put while "seen" grows linearly.
  const double duration_s = argc > 1 ? std::atof(argv[1]) : 2.0;
  bench::header("Ext", "long-horizon runs: bounded & streaming record sinks");

  const core::SimulationConfig cfg = core::default_config();
  core::BoundedSinkConfig bounded_cfg;
  bounded_cfg.pic_capacity = 256;
  bounded_cfg.gpm_capacity = 64;

  // Reference: the historical keep-everything sink.
  core::InMemorySink mem_sink;
  core::Simulation mem_sim(cfg);
  const core::SimulationResult mem = mem_sim.run(duration_s, mem_sink);

  // Ring buffer (keep last) and stride-doubling decimation.
  core::BoundedSink ring_sink(bounded_cfg);
  core::Simulation ring_sim(cfg);
  const core::SimulationResult ring = ring_sim.run(duration_s, ring_sink);

  bounded_cfg.policy = core::BoundedSinkConfig::Policy::kDecimate;
  core::BoundedSink dec_sink(bounded_cfg);
  core::Simulation dec_sim(cfg);
  const core::SimulationResult dec = dec_sim.run(duration_s, dec_sink);

  // Streaming CSV into string buffers (a real run would use
  // make_streaming_file_sink to spill to disk).
  std::ostringstream pic_csv, gpm_csv;
  core::StreamingSink csv_sink(pic_csv, gpm_csv);
  core::Simulation csv_sim(cfg);
  const core::SimulationResult csv = csv_sim.run(duration_s, csv_sink);

  util::AsciiTable table({"sink", "PIC retained", "GPM retained", "GPM seen",
                          "mean power (W)", "max overshoot"});
  const auto row = [&](const char* name, const core::SimulationResult& res,
                       const core::RecordSink& sink) {
    table.add_row({name, std::to_string(res.pic_records.size()),
                   std::to_string(res.gpm_records.size()),
                   std::to_string(res.gpm_records_seen),
                   util::AsciiTable::num(sink.gpm_power_stats().mean(), 3),
                   util::AsciiTable::pct(sink.tracking().metrics().max_overshoot)});
  };
  row("in-memory", mem, mem_sink);
  row("ring (keep-last)", ring, ring_sink);
  row("decimate", dec, dec_sink);
  row("streaming CSV", csv, csv_sink);
  table.print(std::cout);

  bool ok = true;
  // (a) Bounded sinks hold at most their capacity; streaming retains nothing.
  if (ring.pic_records.size() > bounded_cfg.pic_capacity ||
      ring.gpm_records.size() > bounded_cfg.gpm_capacity) ok = false;
  if (dec.pic_records.size() > bounded_cfg.pic_capacity ||
      dec.gpm_records.size() > bounded_cfg.gpm_capacity) ok = false;
  if (!csv.pic_records.empty() || !csv.gpm_records.empty()) ok = false;

  // (b) Streaming aggregates are exact: every sink saw the same seeded run,
  // so its running stats must match the full in-memory trace to 1e-9.
  const double mem_mean = mean_power(mem.gpm_records);
  const core::ChipTrackingMetrics mem_track =
      core::chip_tracking_metrics(mem.gpm_records);
  const std::vector<const core::RecordSink*> sinks{&mem_sink, &ring_sink,
                                                   &dec_sink, &csv_sink};
  for (const core::RecordSink* sink : sinks) {
    if (std::abs(sink->gpm_power_stats().mean() - mem_mean) > 1e-9) ok = false;
    const core::ChipTrackingMetrics t = sink->tracking().metrics();
    if (std::abs(t.max_overshoot - mem_track.max_overshoot) > 1e-9 ||
        std::abs(t.mean_abs_error - mem_track.mean_abs_error) > 1e-9) {
      ok = false;
    }
    if (sink->gpm_records_seen() != mem.gpm_records.size()) ok = false;
  }

  // (c) The streamed CSV round-trips to the full in-memory trace.
  std::istringstream pic_in(pic_csv.str()), gpm_in(gpm_csv.str());
  const auto pic_rt = core::read_pic_trace_csv(pic_in);
  const auto gpm_rt = core::read_gpm_trace_csv(gpm_in);
  if (pic_rt.size() != mem.pic_records.size() ||
      gpm_rt.size() != mem.gpm_records.size()) ok = false;

  bench::note("bounded sinks cap resident records at (256 PIC, 64 GPM) while");
  bench::note("their streaming aggregates stay exact; CSV spills the full trace");
  return ok ? 0 : 1;
}
