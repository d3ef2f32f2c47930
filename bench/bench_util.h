// Shared helpers for the figure/table regeneration harness. Each bench
// binary prints the same rows/series the paper's corresponding figure or
// table reports, using these formatting utilities, and exits non-zero when
// its shape check fails (see scripts/bench_all.sh).
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/invariant_checker.h"
#include "core/record_sink.h"
#include "core/simulation.h"
#include "util/table.h"

namespace cpm::bench {

/// Runs a simulation with the invariant checker attached in fatal mode: a
/// violated power-management invariant aborts the bench with a diagnostic
/// instead of silently baking corrupt numbers into a regenerated figure.
inline core::SimulationResult checked_run(core::Simulation& sim,
                                          double seconds) {
  core::InvariantCheckerConfig cc = core::checker_config_for(sim);
  cc.fatal = true;
  core::InvariantChecker checker(std::move(cc));
  core::InMemorySink mem;
  core::CheckingSink sink(checker, mem);
  return sim.run(seconds, sink);
}

inline void header(const std::string& id, const std::string& title) {
  std::cout << "\n=== " << id << ": " << title << " ===\n";
}

inline void note(const std::string& text) {
  std::cout << "  " << text << "\n";
}

/// Prints a time series as "label: v0 v1 v2 ..." with fixed precision.
inline void series(const std::string& label, const std::vector<double>& values,
                   int precision = 1) {
  std::printf("  %-18s", (label + ":").c_str());
  for (const double v : values) std::printf(" %6.*f", precision, v);
  std::printf("\n");
}

}  // namespace cpm::bench
