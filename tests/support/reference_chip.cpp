#include "support/reference_chip.h"

#include <bit>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/rng.h"

namespace cpm::reference {

ReferenceChip::ReferenceChip(const sim::CmpConfig& config,
                             const workload::Mix& mix, std::uint64_t seed)
    : config_(config), memory_(config.memory_bandwidth_capacity) {
  util::Xoshiro256pp master(seed);
  std::size_t core_index = 0;
  cores_.resize(mix.islands.size());
  actuators_.reserve(mix.islands.size());
  for (std::size_t i = 0; i < mix.islands.size(); ++i) {
    for (const workload::BenchmarkProfile* profile : mix.islands[i]) {
      const units::Milliseconds offset{1.7 * static_cast<double>(core_index)};
      cores_[i].emplace_back(*profile, master(), config_.contention_gamma,
                             offset);
      ++core_index;
    }
    actuators_.emplace_back(config_.dvfs, config_.dvfs.max_level(),
                            config_.dvfs_overhead_fraction,
                            config_.pic_interval_s);
  }
  soa_.resize(core_index);
  tick_.islands.resize(cores_.size());
}

const sim::ChipTick& ReferenceChip::step(double dt_seconds) {
  const double congestion = memory_.congestion();
  tick_.congestion = congestion;
  tick_.total_bips = 0.0;
  tick_.total_instructions = 0.0;
  double total_demand = 0.0;
  double chip_util = 0.0;
  std::size_t g = 0;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    // The transition stall applies island-wide: all cores share the clock.
    const double stall_fraction =
        actuators_[i].consume_stall(dt_seconds) / dt_seconds;
    const sim::DvfsPoint op = actuators_[i].operating_point();
    sim::IslandTick& it = tick_.islands[i];
    it = sim::IslandTick{};
    for (sim::CoreModel& core : cores_[i]) {
      const sim::CoreTick ct =
          core.step(dt_seconds, op, congestion, stall_fraction);
      it.bips += ct.bips;
      it.utilization += ct.utilization;
      it.instructions += ct.instructions;
      it.bandwidth_demand += ct.bandwidth_demand;
      it.cores.push_back(ct);
      soa_.demand_activity[g] = ct.activity;
      soa_.freq_ghz[g] = op.freq_ghz;
      soa_.inv_freq[g] = 1.0 / op.freq_ghz;
      soa_.voltage[g] = op.voltage;
      soa_.run_fraction[g] = 1.0 - ct.stall_fraction;
      soa_.stall_fraction[g] = ct.stall_fraction;
      soa_.activity_idle[g] = ct.activity_idle;
      soa_.ceff_scale[g] = ct.ceff_scale;
      soa_.instructions[g] = ct.instructions;
      soa_.bips[g] = ct.bips;
      soa_.utilization[g] = ct.utilization;
      soa_.bandwidth_demand[g] = ct.bandwidth_demand;
      ++g;
    }
    chip_util += it.utilization;
    it.utilization /= static_cast<double>(cores_[i].size());
    tick_.total_bips += it.bips;
    tick_.total_instructions += it.instructions;
    total_demand += it.bandwidth_demand;
  }
  tick_.utilization = chip_util / static_cast<double>(g);
  memory_.update(total_demand);
  return tick_;
}

void ReferenceChip::migrate(std::size_t island_a, std::size_t core_a,
                            std::size_t island_b, std::size_t core_b,
                            double stall_seconds) {
  if (island_a >= cores_.size() || island_b >= cores_.size() ||
      core_a >= cores_[island_a].size() || core_b >= cores_[island_b].size()) {
    throw std::invalid_argument("ReferenceChip::migrate: index out of range");
  }
  std::swap(cores_[island_a][core_a], cores_[island_b][core_b]);
  if (stall_seconds > 0.0) {
    actuators_[island_a].add_stall(stall_seconds);
    actuators_[island_b].add_stall(stall_seconds);
  }
}

namespace {

bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string mismatch(const std::string& what, double chip, double reference) {
  std::ostringstream out;
  out.precision(17);
  out << what << ": chip " << chip << " vs reference " << reference;
  return out.str();
}

std::string diff_core(const sim::CoreTick& a, const sim::CoreTick& b) {
  const std::pair<const char*, double sim::CoreTick::*> fields[] = {
      {"instructions", &sim::CoreTick::instructions},
      {"bips", &sim::CoreTick::bips},
      {"utilization", &sim::CoreTick::utilization},
      {"activity", &sim::CoreTick::activity},
      {"activity_idle", &sim::CoreTick::activity_idle},
      {"ceff_scale", &sim::CoreTick::ceff_scale},
      {"bandwidth_demand", &sim::CoreTick::bandwidth_demand},
      {"stall_fraction", &sim::CoreTick::stall_fraction},
  };
  for (const auto& [name, field] : fields) {
    if (!same(a.*field, b.*field)) return mismatch(name, a.*field, b.*field);
  }
  return {};
}

std::string diff_tick(const sim::ChipTick& a, const sim::ChipTick& b,
                      bool record_cores) {
  const std::pair<const char*, double sim::ChipTick::*> chip_fields[] = {
      {"total_bips", &sim::ChipTick::total_bips},
      {"total_instructions", &sim::ChipTick::total_instructions},
      {"utilization", &sim::ChipTick::utilization},
      {"congestion", &sim::ChipTick::congestion},
  };
  for (const auto& [name, field] : chip_fields) {
    if (!same(a.*field, b.*field)) {
      return mismatch(std::string("tick.") + name, a.*field, b.*field);
    }
  }
  if (a.islands.size() != b.islands.size()) return "tick.islands size";
  const std::pair<const char*, double sim::IslandTick::*> island_fields[] = {
      {"bips", &sim::IslandTick::bips},
      {"utilization", &sim::IslandTick::utilization},
      {"instructions", &sim::IslandTick::instructions},
      {"bandwidth_demand", &sim::IslandTick::bandwidth_demand},
  };
  for (std::size_t i = 0; i < a.islands.size(); ++i) {
    const std::string where = "island " + std::to_string(i) + " ";
    for (const auto& [name, field] : island_fields) {
      if (!same(a.islands[i].*field, b.islands[i].*field)) {
        return mismatch(where + name, a.islands[i].*field,
                        b.islands[i].*field);
      }
    }
    const std::vector<sim::CoreTick>& cores = a.islands[i].cores;
    if (!record_cores) {
      if (!cores.empty()) return where + "per-core record not cleared";
      continue;
    }
    if (cores.size() != b.islands[i].cores.size()) {
      return where + "per-core record size";
    }
    for (std::size_t c = 0; c < cores.size(); ++c) {
      const std::string diff = diff_core(cores[c], b.islands[i].cores[c]);
      if (!diff.empty()) {
        return where + "core " + std::to_string(c) + " " + diff;
      }
    }
  }
  return {};
}

std::string diff_soa(const sim::ChipSoa& a, const sim::ChipSoa& b) {
  const std::pair<const char*, std::vector<double> sim::ChipSoa::*>
      columns[] = {
          {"demand_activity", &sim::ChipSoa::demand_activity},
          {"freq_ghz", &sim::ChipSoa::freq_ghz},
          {"inv_freq", &sim::ChipSoa::inv_freq},
          {"voltage", &sim::ChipSoa::voltage},
          {"run_fraction", &sim::ChipSoa::run_fraction},
          {"stall_fraction", &sim::ChipSoa::stall_fraction},
          {"activity_idle", &sim::ChipSoa::activity_idle},
          {"ceff_scale", &sim::ChipSoa::ceff_scale},
          {"instructions", &sim::ChipSoa::instructions},
          {"bips", &sim::ChipSoa::bips},
          {"utilization", &sim::ChipSoa::utilization},
          {"bandwidth_demand", &sim::ChipSoa::bandwidth_demand},
      };
  for (const auto& [name, column] : columns) {
    const std::vector<double>& x = a.*column;
    const std::vector<double>& y = b.*column;
    if (x.size() != y.size()) return std::string("soa.") + name + " size";
    for (std::size_t g = 0; g < x.size(); ++g) {
      if (!same(x[g], y[g])) {
        return mismatch("core " + std::to_string(g) + " soa." + name, x[g],
                        y[g]);
      }
    }
  }
  return {};
}

std::string diff_actuator(const sim::DvfsActuator& a,
                          const sim::DvfsActuator& b) {
  if (a.current_level() != b.current_level()) return "DVFS level";
  if (a.transition_count() != b.transition_count()) return "transition count";
  if (!same(a.pending_stall(), b.pending_stall())) {
    return mismatch("pending stall", a.pending_stall(), b.pending_stall());
  }
  return {};
}

}  // namespace

ChipLockstep::ChipLockstep(const sim::CmpConfig& config,
                           const workload::Mix& mix, std::uint64_t seed,
                           bool record_cores)
    : chip_(config, mix, seed), reference_(config, mix, seed) {
  chip_.set_record_cores(record_cores);
}

void ChipLockstep::migrate(std::size_t island_a, std::size_t core_a,
                           std::size_t island_b, std::size_t core_b,
                           double stall_seconds) {
  chip_.migrate(island_a, core_a, island_b, core_b, stall_seconds);
  reference_.migrate(island_a, core_a, island_b, core_b, stall_seconds);
}

std::string ChipLockstep::step(double dt_seconds) {
  const sim::ChipTick& a = chip_.step(dt_seconds);
  const sim::ChipTick& b = reference_.step(dt_seconds);
  std::string diff = diff_tick(a, b, chip_.record_cores());
  if (diff.empty()) diff = diff_soa(chip_.soa(), reference_.soa());
  for (std::size_t i = 0; diff.empty() && i < chip_.num_islands(); ++i) {
    diff = diff_actuator(chip_.actuator(i), reference_.actuator(i));
    if (!diff.empty()) diff = "island " + std::to_string(i) + " " + diff;
  }
  return diff;
}

LockstepReport run_random_lockstep(const sim::CmpConfig& config,
                                   const workload::Mix& mix,
                                   std::uint64_t chip_seed,
                                   std::uint64_t stream_seed,
                                   std::size_t ticks) {
  util::Xoshiro256pp rng(stream_seed);
  ChipLockstep lock(config, mix, chip_seed, rng.bernoulli(0.5));
  const sim::Chip& chip = lock.chip();
  const std::size_t n = chip.num_islands();
  const std::size_t levels = config.dvfs.num_levels();
  const double dt = config.tick_seconds();
  const double f_lo = 0.8 * config.dvfs.min_freq().value();
  const double f_hi = 1.2 * config.dvfs.max_freq().value();
  const auto set_level = [&lock](std::size_t island, std::size_t level) {
    lock.on_actuator(island,
                     [level](sim::DvfsActuator& a) { a.set_level(level); });
  };

  LockstepReport report;
  if (rng.bernoulli(0.5)) {
    // SimulationRun's start-up; calibration starts at the top level.
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t level = rng.uniform_int(levels);
      lock.on_actuator(i, [level](sim::DvfsActuator& a) {
        a.set_level(level);
        a.consume_stall(1.0);
      });
    }
  }
  std::size_t pics = 0;
  for (std::size_t t = 0; t < ticks; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      if (chip.actuator(i).pending_stall() != 0.0) ++report.stalled_ticks;
    }
    const std::string diff = lock.step(dt);
    ++report.ticks;
    if (!diff.empty()) {
      report.divergence = "tick " + std::to_string(t) + ": " + diff;
      break;
    }
    if ((t + 1) % config.ticks_per_pic_interval != 0) continue;
    for (std::size_t i = 0; i < n; ++i) {
      switch (rng.uniform_int(4)) {
        case 0: {  // a PIC request
          const units::GigaHertz f{rng.uniform(f_lo, f_hi)};
          lock.on_actuator(
              i, [f](sim::DvfsActuator& a) { a.request_frequency(f); });
          break;
        }
        case 1:  // calibration's white-noise excitation
          set_level(i, rng.uniform_int(levels));
          break;
        case 2:  // a set_level that changes nothing
          set_level(i, chip.actuator(i).current_level());
          break;
        default:
          break;
      }
    }
    if (++pics % config.pic_invocations_per_gpm() != 0) continue;
    if (rng.bernoulli(0.5)) {  // a MaxBIPS window
      for (std::size_t i = 0; i < n; ++i) {
        set_level(i, rng.bernoulli(0.5) ? chip.actuator(i).current_level()
                                        : rng.uniform_int(levels));
      }
    }
    if (n > 1 && rng.bernoulli(0.5)) {
      const std::size_t a = rng.uniform_int(n);
      const std::size_t b = (a + 1 + rng.uniform_int(n - 1)) % n;
      const std::size_t core_a = rng.uniform_int(chip.island_size(a));
      const std::size_t core_b = rng.uniform_int(chip.island_size(b));
      const double stall_ticks[] = {0.0, rng.uniform(0.1, 0.9),
                                    rng.uniform(1.5, 4.0)};
      lock.migrate(a, core_a, b, core_b,
                   stall_ticks[rng.uniform_int(3)] * dt);
      ++report.migrations;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    report.transitions += chip.actuator(i).transition_count();
  }
  return report;
}

}  // namespace cpm::reference
