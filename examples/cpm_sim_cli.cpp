// Full command-line driver for the simulation platform: choose topology,
// workload mix, manager, policy, budget, duration and seed; optionally dump
// the full PIC/GPM traces and the run summary to CSV for external plotting.
//
//   cpm_sim_cli --cores 8 --budget 0.8 --policy perf --duration 0.25
//               --csv-prefix /tmp/run1
//
// Exercises: the entire public API surface, trace export.
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "core/experiment.h"
#include "core/invariant_checker.h"
#include "core/record_sink.h"
#include "core/report.h"
#include "core/trace_io.h"
#include "util/isa.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/table.h"
#include "util/trace.h"
#include "workload/mixes.h"
#include "util/units.h"

namespace {

struct CliOptions {
  std::size_t cores = 8;
  double budget = 0.8;
  std::string manager = "cpm";
  std::string policy = "perf";
  std::string mix = "default";
  double duration = cpm::core::kDefaultDurationS;
  std::uint64_t seed = 42;
  std::string csv_prefix;
  std::string report_path;
  bool baseline = false;  // also run NoDVFS and report degradation
  std::string record_sink = "mem";
  std::uint64_t sink_capacity = 4096;
  std::string trace_out;  // file prefix for the streaming sinks
  bool check_invariants = false;
  std::string chrome_trace;  // Chrome trace_event JSON (Perfetto) output
  std::string metrics_out;   // metrics-registry JSON snapshot output
  std::string log_file;      // route log lines to a file instead of stderr
};

void usage() {
  std::cout <<
      "cpm_sim_cli -- coordinated power management simulation driver\n\n"
      "options:\n"
      "  --cores N         8 (default), 16 or 32\n"
      "  --budget F        chip budget as a fraction of max power (0.8)\n"
      "  --manager M       cpm | maxbips | nodvfs (cpm)\n"
      "  --policy P        perf | thermal | variation | energy (perf)\n"
      "  --mix M           default | mix2 (8-core only)\n"
      "  --duration S      simulated seconds (0.25)\n"
      "  --seed N          RNG seed (42)\n"
      "  --csv-prefix P    write P_pic.csv, P_gpm.csv, P_summary.csv\n"
      "  --report FILE     write a markdown run report\n"
      "  --baseline        also run the NoDVFS reference, report degradation\n"
      "  --record-sink S   mem | ring | decimate | csv | jsonl (mem).\n"
      "                    ring/decimate bound resident records at the sink\n"
      "                    capacity; csv/jsonl stream every record to disk\n"
      "                    (requires --trace-out) and retain none in memory\n"
      "  --sink-capacity N max records retained per stream by ring/decimate\n"
      "                    (4096)\n"
      "  --trace-out P     streaming-sink file prefix: writes P_pic.<ext> and\n"
      "                    P_gpm.<ext>\n"
      "  --check-invariants\n"
      "                    validate every record against the manager's\n"
      "                    structural invariants (budget sums, DVFS bounds and\n"
      "                    quantization, step clamp, thermal streaks, sink\n"
      "                    aggregates); the first violation aborts the run\n"
      "  --chrome-trace F  record a Chrome trace_event JSON timeline of the\n"
      "                    run (open in Perfetto / chrome://tracing)\n"
      "  --metrics-out F   dump the metrics-registry JSON snapshot (counters,\n"
      "                    histograms) after the run\n"
      "  --log-file F      append log lines to F instead of stderr\n"
      "  --help            this text\n";
}

enum class ParseResult { kRun, kHelp, kError };

/// std::stod/stoul wrappers that report bad numbers instead of throwing
/// out of main (an uncaught exception would abort on e.g. `--budget abc`).
bool parse_double(const char* text, const std::string& flag, double& out) {
  try {
    std::size_t used = 0;
    out = std::stod(text, &used);
    if (used != std::string(text).size()) throw std::invalid_argument(text);
    return true;
  } catch (const std::exception&) {
    std::cerr << "bad number for " << flag << ": '" << text << "'\n";
    return false;
  }
}

bool parse_uint(const char* text, const std::string& flag, std::uint64_t& out) {
  try {
    std::size_t used = 0;
    out = std::stoull(text, &used);
    if (used != std::string(text).size()) throw std::invalid_argument(text);
    return true;
  } catch (const std::exception&) {
    std::cerr << "bad number for " << flag << ": '" << text << "'\n";
    return false;
  }
}

ParseResult parse(int argc, char** argv, CliOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      return ParseResult::kHelp;
    } else if (arg == "--cores") {
      const char* v = next();
      std::uint64_t cores = 0;
      if (!v || !parse_uint(v, arg, cores)) return ParseResult::kError;
      opt.cores = static_cast<std::size_t>(cores);
    } else if (arg == "--budget") {
      const char* v = next();
      if (!v || !parse_double(v, arg, opt.budget)) return ParseResult::kError;
    } else if (arg == "--manager") {
      const char* v = next();
      if (!v) return ParseResult::kError;
      opt.manager = v;
    } else if (arg == "--policy") {
      const char* v = next();
      if (!v) return ParseResult::kError;
      opt.policy = v;
    } else if (arg == "--mix") {
      const char* v = next();
      if (!v) return ParseResult::kError;
      opt.mix = v;
    } else if (arg == "--duration") {
      const char* v = next();
      if (!v || !parse_double(v, arg, opt.duration)) return ParseResult::kError;
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v || !parse_uint(v, arg, opt.seed)) return ParseResult::kError;
    } else if (arg == "--csv-prefix") {
      const char* v = next();
      if (!v) return ParseResult::kError;
      opt.csv_prefix = v;
    } else if (arg == "--report") {
      const char* v = next();
      if (!v) return ParseResult::kError;
      opt.report_path = v;
    } else if (arg == "--baseline") {
      opt.baseline = true;
    } else if (arg == "--record-sink") {
      const char* v = next();
      if (!v) return ParseResult::kError;
      opt.record_sink = v;
    } else if (arg == "--sink-capacity") {
      const char* v = next();
      if (!v || !parse_uint(v, arg, opt.sink_capacity)) {
        return ParseResult::kError;
      }
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return ParseResult::kError;
      opt.trace_out = v;
    } else if (arg == "--check-invariants") {
      opt.check_invariants = true;
    } else if (arg == "--chrome-trace") {
      const char* v = next();
      if (!v) return ParseResult::kError;
      opt.chrome_trace = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return ParseResult::kError;
      opt.metrics_out = v;
    } else if (arg == "--log-file") {
      const char* v = next();
      if (!v) return ParseResult::kError;
      opt.log_file = v;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage();
      return ParseResult::kError;
    }
  }
  return ParseResult::kRun;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cpm;
  CliOptions opt;
  switch (parse(argc, argv, opt)) {
    case ParseResult::kHelp:
      return 0;
    case ParseResult::kError:
      return 1;
    case ParseResult::kRun:
      break;
  }

  core::SimulationConfig config;
  try {
    if (!opt.log_file.empty()) {
      util::set_log_sink(util::make_file_log_sink(opt.log_file));
    }
    // Start before the Simulation is built so calibration shows up on the
    // timeline too.
    if (!opt.chrome_trace.empty()) {
      util::trace::start_session(opt.chrome_trace);
    }
    config = core::scaled_config(opt.cores, opt.budget, opt.seed);
    if (opt.mix == "mix2") {
      if (opt.cores != 8) {
        std::cerr << "--mix mix2 requires --cores 8\n";
        return 1;
      }
      config.mix = workload::mix2();
    } else if (opt.mix != "default") {
      std::cerr << "unknown mix: " << opt.mix << "\n";
      return 1;
    }

    if (opt.manager == "cpm") {
      config.manager = core::ManagerKind::kCpm;
    } else if (opt.manager == "maxbips") {
      config.manager = core::ManagerKind::kMaxBips;
    } else if (opt.manager == "nodvfs") {
      config.manager = core::ManagerKind::kNoDvfs;
    } else {
      std::cerr << "unknown manager: " << opt.manager << "\n";
      return 1;
    }

    if (opt.policy == "perf") {
      config.policy = core::PolicyKind::kPerformance;
    } else if (opt.policy == "thermal") {
      config.policy = core::PolicyKind::kThermal;
    } else if (opt.policy == "variation") {
      config.policy = core::PolicyKind::kVariation;
      config.island_leak_mults.assign(config.cmp.num_islands, 1.0);
      // Default variation pattern: alternate leaky/normal islands.
      for (std::size_t i = 0; i < config.island_leak_mults.size(); i += 2) {
        config.island_leak_mults[i] = 1.5;
      }
    } else if (opt.policy == "energy") {
      config.policy = core::PolicyKind::kEnergy;
    } else {
      std::cerr << "unknown policy: " << opt.policy << "\n";
      return 1;
    }

    std::unique_ptr<core::RecordSink> sink;
    if (opt.record_sink == "mem") {
      sink = std::make_unique<core::InMemorySink>();
    } else if (opt.record_sink == "ring" || opt.record_sink == "decimate") {
      core::BoundedSinkConfig bc;
      bc.pic_capacity = static_cast<std::size_t>(opt.sink_capacity);
      bc.gpm_capacity = static_cast<std::size_t>(opt.sink_capacity);
      bc.policy = opt.record_sink == "ring"
                      ? core::BoundedSinkConfig::Policy::kKeepLast
                      : core::BoundedSinkConfig::Policy::kDecimate;
      sink = std::make_unique<core::BoundedSink>(bc);
    } else if (opt.record_sink == "csv" || opt.record_sink == "jsonl") {
      if (opt.trace_out.empty()) {
        std::cerr << "--record-sink " << opt.record_sink
                  << " requires --trace-out PREFIX\n";
        return 1;
      }
      sink = core::make_streaming_file_sink(
          opt.trace_out, opt.record_sink == "csv"
                             ? core::StreamingSinkConfig::Format::kCsv
                             : core::StreamingSinkConfig::Format::kJsonl);
    } else {
      std::cerr << "unknown record sink: " << opt.record_sink << "\n";
      return 1;
    }

    core::Simulation sim(config);
    std::cout << "max chip power: " << sim.max_chip_power().value() << " W, budget "
              << sim.budget().value() << " W (" << opt.budget * 100
              << "%), tick kernels: " << util::isa_name(util::host_isa())
              << "\n";

    std::unique_ptr<core::InvariantChecker> checker;
    if (opt.check_invariants) {
      core::InvariantCheckerConfig cc = core::checker_config_for(sim);
      cc.fatal = true;  // first violation aborts with its full detail
      checker = std::make_unique<core::InvariantChecker>(std::move(cc));
      sink = std::make_unique<core::CheckingSink>(*checker, std::move(sink));
    }
    const core::SimulationResult result = sim.run(opt.duration, *sink);
    if (checker) std::cout << checker->summary() << "\n";

    // Every sink keeps exact tracking aggregates over all the records it
    // saw, whatever it retained.
    const core::ChipTrackingMetrics chip = sink->tracking().metrics();
    util::AsciiTable table({"metric", "value"});
    table.add_row({"mean chip power",
                   util::AsciiTable::num(result.avg_chip_power_w, 2) + " W (" +
                       util::AsciiTable::pct(result.avg_chip_power_w /
                                             result.max_chip_power_w) +
                       " of max)"});
    table.add_row({"chip overshoot", util::AsciiTable::pct(chip.max_overshoot)});
    table.add_row({"chip undershoot", util::AsciiTable::pct(chip.max_undershoot)});
    table.add_row({"mean |error|", util::AsciiTable::pct(chip.mean_abs_error)});
    table.add_row({"mean chip BIPS", util::AsciiTable::num(result.avg_chip_bips, 3)});
    table.add_row({"instructions", util::AsciiTable::num(result.total_instructions, 0)});
    table.add_row({"DVFS transitions", util::AsciiTable::num(result.dvfs_transitions, 0)});
    table.add_row({"hotspot time", util::AsciiTable::pct(result.hotspot_fraction)});

    if (opt.baseline && config.manager != core::ManagerKind::kNoDvfs) {
      core::SimulationConfig base_cfg = config;
      base_cfg.manager = core::ManagerKind::kNoDvfs;
      core::Simulation baseline(base_cfg);
      const core::SimulationResult base = baseline.run(opt.duration);
      table.add_row({"degradation vs NoDVFS",
                     util::AsciiTable::pct(
                         core::performance_degradation(result, base))});
    }
    table.print(std::cout);

    if (opt.record_sink != "mem") {
      std::cout << "records retained/seen: PIC " << result.pic_records.size()
                << "/" << result.pic_records_seen << ", GPM "
                << result.gpm_records.size() << "/" << result.gpm_records_seen
                << "\n";
      if (!opt.trace_out.empty()) {
        const std::string ext = opt.record_sink == "jsonl" ? "jsonl" : "csv";
        std::cout << "streamed traces written to " << opt.trace_out
                  << "_{pic,gpm}." << ext << "\n";
      }
    }

    if (!opt.report_path.empty()) {
      std::ofstream report(opt.report_path);
      if (!report) {
        std::cerr << "cannot open report file " << opt.report_path << "\n";
        return 1;
      }
      core::write_markdown_report(report, config, result);
      std::cout << "report written to " << opt.report_path << "\n";
    }

    if (!opt.csv_prefix.empty()) {
      std::ofstream pic(opt.csv_prefix + "_pic.csv");
      std::ofstream gpm(opt.csv_prefix + "_gpm.csv");
      std::ofstream summary(opt.csv_prefix + "_summary.csv");
      if (!pic || !gpm || !summary) {
        std::cerr << "cannot open CSV outputs with prefix " << opt.csv_prefix
                  << "\n";
        return 1;
      }
      core::write_pic_trace_csv(pic, result.pic_records);
      core::write_gpm_trace_csv(gpm, result.gpm_records);
      core::write_summary_csv(summary, result);
      std::cout << "traces written to " << opt.csv_prefix << "_{pic,gpm,summary}.csv\n";
    }

    if (!opt.chrome_trace.empty()) {
      const std::size_t events = util::trace::stop_session();
      std::cout << "chrome trace written to " << opt.chrome_trace << " ("
                << events << " events)\n";
    }
    if (!opt.metrics_out.empty()) {
      std::ofstream metrics(opt.metrics_out);
      if (!metrics) {
        std::cerr << "cannot open metrics file " << opt.metrics_out << "\n";
        return 1;
      }
      util::MetricsRegistry::global().write_json(metrics);
      std::cout << "metrics written to " << opt.metrics_out << "\n";
    }
  } catch (const std::exception& e) {
    util::trace::stop_session();  // flush whatever was captured before dying
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
