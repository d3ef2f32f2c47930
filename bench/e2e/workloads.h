// The benchmark's five workloads. Each one turns a --seed into simulator
// configs, builds the library objects from them (set-up), and runs timed
// repetitions through public calls only: Simulation, SimulationRun::advance,
// RecordSink, ClusterPowerManager::run, make_cluster_chips and
// util::parallel_map. Why each workload exists is stated beside its factory
// in workloads.cpp and in README.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/simulation.h"

namespace cpm::e2e {

enum class Scale { kFull, kSmoke };

/// How much one rep simulates.
enum class RepSize {
  kTimed,  // a timed rep: short, so that one run holds many
  kFull,   // a checked rep whose simulated outputs are reported
  kSlice,  // the traced slice
};

struct RepOptions {
  std::size_t threads = 1;
  RepSize size = RepSize::kTimed;
  /// Run an InvariantChecker over every record (warm-up and verification).
  bool checked = false;
  /// Time the record sinks (traced pass only).
  bool time_sinks = false;
};

struct RepResult {
  double host_s = 0.0;        // timed wall of the rep
  double core_ticks = 0.0;    // simulated core-ticks in the rep
  std::uint64_t windows = 0;  // GPM windows (chips) or epochs (fleet)
  std::uint64_t digest = 0;
  double sim_bips = 0.0;
  double budget_err_pct = 0.0;
  /// Host time of the rep cut at every GPM record, about one chip's GPM
  /// window each (see SegmentClock); sums to host_s. Single-threaded reps
  /// only.
  std::vector<float> segment_us;
  std::uint64_t violations = 0;
  std::uint64_t records = 0;  // PIC + GPM records produced
  double sink_ns = 0.0;       // time in the terminal sink (time_sinks)
  double checker_ns = 0.0;    // time in the CheckingSink (time_sinks)
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;  // set-up objects hold pointers back
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Builds every library object a rep needs from the generated configs;
  /// this is what setup_s times. Calling it again builds everything anew.
  virtual void setup(std::size_t threads) = 0;
  /// Destroys what setup() built, so a timed setup() excludes the teardown
  /// of the previous objects and never holds two sets at once.
  virtual void release() = 0;
  /// One repetition with fresh run objects over the set-up simulations.
  virtual RepResult rep(const RepOptions& options) = 0;
  /// True when a rep can spread over the thread pool (fleets, sweep).
  virtual bool parallel() const = 0;
  /// Config of one representative chip, for the component pass.
  virtual const core::SimulationConfig& chip_config() const = 0;
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Scale scale);

}  // namespace cpm::e2e
