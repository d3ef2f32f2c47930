#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "core/gpm.h"
#include "core/invariant_checker.h"
#include "core/perf_policy.h"
#include "core/pic.h"
#include "core/record_sink.h"
#include "core/thermal_policy.h"
#include "power/model.h"
#include "sim/chip.h"
#include "thermal/hotspot.h"
#include "thermal/rc_model.h"
#include "util/json.h"
#include "workload/workload.h"

namespace cpm::e2e {
namespace {

/// Value of `"key":` in one event line: a string (without quotes) or the
/// raw number text. Empty when the key is absent.
std::string_view field(std::string_view line, std::string_view key) {
  std::string pattern = "\"";
  pattern.append(key);
  pattern += "\":";
  const std::size_t at = line.find(pattern);
  if (at == std::string_view::npos) return {};
  std::size_t begin = at + pattern.size();
  if (begin < line.size() && line[begin] == '"') {
    ++begin;
    const std::size_t end = line.find('"', begin);
    return line.substr(begin, end == std::string_view::npos ? 0 : end - begin);
  }
  std::size_t end = begin;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(begin, end - begin);
}

double number(std::string_view text) {
  return std::strtod(std::string(text).c_str(), nullptr);
}

/// Times `fn` per call: doubles the batch until one batch takes a quarter
/// of `budget_s`, then reports the median of three batches.
template <typename Fn>
double ns_per_call(Fn&& fn, double budget_s) {
  std::size_t n = 1;
  for (;;) {
    const double t0 = host_now_s();
    for (std::size_t i = 0; i < n; ++i) fn();
    if (host_now_s() - t0 >= budget_s / 4.0 || n >= (std::size_t{1} << 28)) {
      break;
    }
    n *= 2;
  }
  std::vector<double> samples;
  for (int k = 0; k < 3; ++k) {
    const double t0 = host_now_s();
    for (std::size_t i = 0; i < n; ++i) fn();
    samples.push_back((host_now_s() - t0) * 1e9 / static_cast<double>(n));
  }
  return quantile(std::move(samples), 0.5);
}

std::unique_ptr<core::ProvisioningPolicy> make_policy(
    const core::SimulationConfig& config) {
  core::PerfPolicyConfig perf = config.perf_policy;
  perf.dvfs = config.cmp.dvfs;
  if (config.policy == core::PolicyKind::kThermal) {
    return std::make_unique<core::ThermalAwarePolicy>(
        std::make_unique<core::PerformanceAwarePolicy>(perf),
        core::resolved_thermal_constraints(config), config.cmp.num_islands);
  }
  return std::make_unique<core::PerformanceAwarePolicy>(perf);
}

}  // namespace

std::vector<TraceEvent> parse_library_trace(const std::string& doc) {
  std::vector<TraceEvent> events;
  std::istringstream in(doc);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"name\":", 0) != 0) continue;
    if (field(line, "ph") != "X") continue;
    TraceEvent e;
    e.name = std::string(field(line, "name"));
    e.pid = 1;
    e.tid = static_cast<std::uint32_t>(number(field(line, "tid")));
    e.ts_us = number(field(line, "ts"));
    e.dur_us = number(field(line, "dur"));
    events.push_back(std::move(e));
  }
  return events;
}

std::vector<TraceEvent> to_events(const std::vector<BenchSpan>& spans) {
  std::vector<TraceEvent> events;
  events.reserve(spans.size());
  for (const BenchSpan& s : spans) {
    events.push_back(TraceEvent{s.name, 2, static_cast<std::uint32_t>(s.lane),
                                s.ts_us, s.dur_us});
  }
  return events;
}

void write_chrome_trace(const std::string& path, const std::string& library_doc,
                        const std::vector<BenchSpan>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"library\"}},\n"
      << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
         "\"args\":{\"name\":\"benchmark\"}}";
  std::istringstream in(library_doc);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"name\":", 0) != 0) continue;
    if (!line.empty() && line.back() == ',') line.pop_back();
    out << ",\n" << line;
  }
  char num[64];
  for (const BenchSpan& s : spans) {
    out << ",\n{\"name\":\"" << util::json::escape(s.name)
        << "\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":2,\"tid\":" << s.lane;
    std::snprintf(num, sizeof num, "%.3f", s.ts_us);
    out << ",\"ts\":" << num;
    std::snprintf(num, sizeof num, "%.3f", s.dur_us);
    out << ",\"dur\":" << num << '}';
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<LayerRow> layer_table(const std::vector<TraceEvent>& events,
                                  double begin_us, double end_us) {
  // Self time: per thread, walk events by start (longest first on ties)
  // with a stack of open spans; each event's duration is charged to the
  // innermost span that contains it.
  std::map<std::pair<int, std::uint32_t>, std::vector<const TraceEvent*>>
      by_thread;
  for (const TraceEvent& e : events) {
    if (e.ts_us < begin_us || e.ts_us >= end_us) continue;
    by_thread[{e.pid, e.tid}].push_back(&e);
  }
  std::map<std::string, LayerRow> rows;
  for (auto& [thread, list] : by_thread) {
    std::sort(list.begin(), list.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                return a->dur_us > b->dur_us;
              });
    std::vector<std::pair<const TraceEvent*, double>> stack;  // event, child
    const auto close = [&rows](const TraceEvent* e, double child_us) {
      LayerRow& row = rows[e->name];
      row.name = e->name;
      ++row.count;
      row.total_ms += e->dur_us / 1e3;
      row.self_ms += std::max(0.0, e->dur_us - child_us) / 1e3;
    };
    for (const TraceEvent* e : list) {
      while (!stack.empty() && stack.back().first->end_us() <= e->ts_us) {
        close(stack.back().first, stack.back().second);
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().second += e->dur_us;
      stack.emplace_back(e, 0.0);
    }
    while (!stack.empty()) {
      close(stack.back().first, stack.back().second);
      stack.pop_back();
    }
  }
  std::vector<LayerRow> out;
  const double wall_ms = (end_us - begin_us) / 1e3;
  for (auto& [name, row] : rows) {
    row.share = wall_ms > 0.0 ? row.total_ms / wall_ms : 0.0;
    out.push_back(row);
  }
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.total_ms > b.total_ms;
  });
  return out;
}

std::vector<double> durations(const std::vector<TraceEvent>& events,
                              const std::string& name, double begin_us,
                              double end_us) {
  std::vector<double> out;
  for (const TraceEvent& e : events) {
    if (e.name == name && e.ts_us >= begin_us && e.ts_us < end_us) {
      out.push_back(e.dur_us);
    }
  }
  return out;
}

double mean_imbalance(const std::vector<TraceEvent>& events,
                      const std::string& parent, const std::string& child,
                      double begin_us, double end_us) {
  std::vector<const TraceEvent*> parents;
  std::vector<const TraceEvent*> children;
  for (const TraceEvent& e : events) {
    if (e.ts_us < begin_us || e.ts_us >= end_us) continue;
    if (e.name == parent) parents.push_back(&e);
    if (e.name == child) children.push_back(&e);
  }
  const auto by_start = [](const TraceEvent* a, const TraceEvent* b) {
    return a->ts_us < b->ts_us;
  };
  std::sort(parents.begin(), parents.end(), by_start);
  std::sort(children.begin(), children.end(), by_start);
  double sum = 0.0;
  std::size_t groups = 0;
  std::size_t c = 0;
  for (const TraceEvent* p : parents) {
    while (c < children.size() && children[c]->ts_us < p->ts_us) ++c;
    double max_us = 0.0;
    double total_us = 0.0;
    std::size_t n = 0;
    for (; c < children.size() && children[c]->ts_us < p->end_us(); ++c) {
      max_us = std::max(max_us, children[c]->dur_us);
      total_us += children[c]->dur_us;
      ++n;
    }
    if (n == 0 || total_us <= 0.0) continue;
    sum += max_us / (total_us / static_cast<double>(n));
    ++groups;
  }
  return groups ? sum / static_cast<double>(groups) : 0.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

ComponentTimes component_pass(const core::SimulationConfig& config,
                              double loop_s) {
  const sim::CmpConfig& cmp = config.cmp;
  const double dt = cmp.tick_seconds();
  const double cores = static_cast<double>(cmp.total_cores());
  ComponentTimes t;
  double checksum = 0.0;

  std::vector<workload::WorkloadInstance> demand;
  std::uint64_t core_seed = config.seed;
  double offset_ms = 0.0;
  for (const auto& island : config.mix.islands) {
    for (const auto* profile : island) {
      demand.emplace_back(*profile, ++core_seed,
                          units::Milliseconds{offset_ms});
      offset_ms += 1.7;
    }
  }
  t.demand_ns = ns_per_call(
                    [&demand, &checksum, dt] {
                      for (auto& w : demand) checksum += w.step(dt).cpi;
                    },
                    loop_s) /
                cores;

  sim::Chip chip(cmp, config.mix, config.seed);
  chip.set_record_cores(false);
  t.chip_step_ns = ns_per_call(
                       [&chip, &checksum, dt] {
                         checksum += chip.step(dt).total_bips;
                       },
                       loop_s) /
                   cores;

  const power::PowerModel power(cmp, config.island_leak_mults);
  thermal::RcThermalModel rc(core::make_floorplan(cmp.total_cores()),
                             config.thermal_params);
  std::vector<double> leak(cmp.total_cores());
  for (std::size_t i = 0; i < chip.num_islands(); ++i) {
    for (std::size_t c = 0; c < chip.island_size(i); ++c) {
      leak[chip.island_offset(i) + c] = power.island_leak_mult(i);
    }
  }
  std::vector<double> core_power(cmp.total_cores());
  const sim::ChipSoa& soa = chip.soa();
  t.power_ns = ns_per_call(
                   [&] {
                     power.chip_power_batch(
                         soa.utilization, soa.demand_activity,
                         soa.activity_idle, soa.ceff_scale, soa.voltage,
                         soa.freq_ghz, leak, rc.temperatures(), core_power);
                     checksum += core_power.front();
                   },
                   loop_s) /
               cores;
  t.rc_ns = ns_per_call(
                [&rc, &core_power, &checksum, dt] {
                  rc.step(core_power, dt);
                  checksum += rc.temperature(0);
                },
                loop_s) /
            cores;
  thermal::HotspotDetector hotspots(cmp.total_cores(),
                                    config.hotspot_threshold_c);
  t.hotspot_ns = ns_per_call(
                     [&hotspots, &rc, &checksum, dt] {
                       checksum += hotspots.record(rc.temperatures(), dt);
                     },
                     loop_s) /
                 cores;

  // Control layers, fed with the records of a short managed run so the
  // controllers see realistic utilizations and island powers.
  core::SimulationConfig managed = config;
  managed.manager = core::ManagerKind::kCpm;
  core::Simulation sim(managed);
  core::InMemorySink records;
  const double warm_s = 20.0 * cmp.gpm_interval_s;
  const core::SimulationResult run = sim.run(warm_s, records);
  const std::size_t n = cmp.num_islands;

  std::vector<core::Pic> pics;
  for (std::size_t i = 0; i < n; ++i) {
    core::PicConfig pc;
    pc.gains = config.pid_gains;
    pc.plant_gain = sim.calibration().plant_gains[i];
    pc.min_freq_ghz = cmp.dvfs.min_freq().value();
    pc.max_freq_ghz = cmp.dvfs.max_freq().value();
    pc.power_scale_w = sim.max_chip_power().value();
    pc.max_step_ghz = config.pic_max_step_ghz;
    pc.deadband_pct = config.pic_deadband_pct;
    pc.observer_gain = config.pic_observer_gain;
    pics.emplace_back(pc, sim.calibration().transducers[i], cmp.dvfs.max_freq());
    pics.back().set_target(sim.budget() / static_cast<double>(n));
  }
  const std::vector<core::PicIntervalRecord>& pic_recs = run.pic_records;
  std::size_t k = 0;
  t.pic_invoke_ns = ns_per_call(
      [&] {
        const core::PicIntervalRecord& rec = pic_recs[k++ % pic_recs.size()];
        checksum += pics[rec.island]
                        .invoke(rec.utilization, sim.level_scale(rec.dvfs_level))
                        .value();
      },
      loop_s);

  std::vector<std::vector<core::IslandObservation>> observations;
  for (const core::GpmIntervalRecord& rec : run.gpm_records) {
    std::vector<core::IslandObservation> obs(n);
    for (std::size_t i = 0; i < n; ++i) {
      obs[i].bips = rec.island_bips[i];
      obs[i].power_w = rec.island_actual_w[i];
      obs[i].utilization = 0.7;
      obs[i].instructions = rec.island_bips[i] * 1e9 * cmp.gpm_interval_s;
      obs[i].energy_j = rec.island_actual_w[i] * cmp.gpm_interval_s;
      obs[i].dvfs_level = cmp.dvfs.max_level();
    }
    observations.push_back(std::move(obs));
  }
  core::Gpm gpm(make_policy(managed), sim.budget(), n);
  k = 0;
  t.gpm_invoke_ns = ns_per_call(
      [&] {
        checksum +=
            gpm.invoke(observations[k++ % observations.size()]).front();
      },
      loop_s);

  // The invariant checker replays the run's records in emission order (a
  // window's PIC records, then its GPM record); it is stateful, so each pass
  // starts a fresh one.
  const core::InvariantCheckerConfig checker_config =
      core::checker_config_for(sim);
  const std::size_t pics_per_window = pic_recs.size() / run.gpm_records.size();
  const double record_count =
      static_cast<double>(pic_recs.size() + run.gpm_records.size());
  t.checker_ns = ns_per_call(
                     [&] {
                       core::InvariantChecker checker(checker_config);
                       for (std::size_t w = 0; w < run.gpm_records.size();
                            ++w) {
                         for (std::size_t p = 0; p < pics_per_window; ++p) {
                           checker.check_pic(pic_recs[w * pics_per_window + p]);
                         }
                         checker.check_gpm(run.gpm_records[w]);
                       }
                       checksum +=
                           static_cast<double>(checker.violations().size());
                     },
                     loop_s) /
                 record_count;
  t.checksum = checksum;
  return t;
}

}  // namespace cpm::e2e
