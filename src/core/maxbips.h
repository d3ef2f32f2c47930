// MaxBIPS baseline (Isci et al., MICRO'06 [17]), as the paper implements it
// for comparison: an open-loop global manager that, once per interval, picks
// the per-island DVFS combination maximizing *predicted* total BIPS subject
// to *predicted* total power <= budget, from a static prediction table
// (BIPS scales ~f, power scales ~f V^2). No feedback: with discrete knobs the
// chosen combination's power is below the set-point, which is why MaxBIPS
// under-consumes the budget in Fig. 11.
//
// The combinatorial choice is solved exactly with a knapsack-style dynamic
// program over discretized power, so it scales to the 8-island/32-core
// configuration (8^8 exhaustive combinations would not).
//
// The manager solves once per distinct input. With the static table the
// inputs (table + budget) are the same every interval, so the DP runs once
// per budget, not once per GPM window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"
#include "sim/dvfs.h"
#include "util/units.h"

namespace cpm::core {

struct MaxBipsConfig {
  sim::DvfsTable dvfs = sim::DvfsTable::pentium_m();
  /// Power discretization bins for the DP (more bins = finer packing).
  std::size_t power_bins = 1024;
};

class MaxBipsManager {
 public:
  MaxBipsManager(const MaxBipsConfig& config, units::Watts budget);

  /// Chooses one DVFS level per island from the observations of the last
  /// interval (each island's measured BIPS and power at its current level).
  /// When the budget, the island count and every island's `bips`,
  /// `power_w`, `leakage_w` and `dvfs_level` are bit-identical to the
  /// previous call, the previous levels are returned without re-running the
  /// DP. The reference stays valid until the next call.
  const std::vector<std::size_t>& choose_levels(
      std::span<const IslandObservation> observations);

  /// DP runs so far (calls that were not answered from the previous solve).
  std::uint64_t solves() const noexcept { return solves_; }

  /// Prediction table entries (exposed for tests): BIPS and power an island
  /// is predicted to produce at `level`, given its current observation.
  static double predict_bips(const IslandObservation& obs,
                             const sim::DvfsTable& dvfs, std::size_t level);
  static units::Watts predict_power(const IslandObservation& obs,
                                    const sim::DvfsTable& dvfs,
                                    std::size_t level);

  units::Watts budget() const noexcept { return budget_; }
  /// Re-targets the budget in place (runtime cap changes), like
  /// Gpm::set_budget -- the manager is not reconstructed mid-run.
  void set_budget(units::Watts budget);

 private:
  /// The bits of one island's observation that the DP reads.
  struct IslandKey {
    std::uint64_t bips = 0;
    std::uint64_t power_w = 0;
    std::uint64_t leakage_w = 0;
    std::size_t dvfs_level = 0;
    bool operator==(const IslandKey&) const = default;
  };
  static IslandKey key_of(const IslandObservation& obs) noexcept;
  bool same_inputs(std::span<const IslandObservation> observations) const;
  void solve(std::span<const IslandObservation> observations);

  MaxBipsConfig config_;
  units::Watts budget_;

  // The last solve and the inputs it was made from (bit patterns, so -0.0
  // and +0.0 differ and a repeated NaN matches); valid once solves_ > 0.
  // budget_ is part of the key, so set_budget needs no invalidation.
  std::uint64_t solves_ = 0;
  std::uint64_t solved_budget_ = 0;
  std::vector<IslandKey> solved_key_;
  std::vector<std::size_t> levels_;

  // DP scratch reused across solves: the tables run ~quarter-MB at 16
  // islands x 1024 bins, and allocating + filling a fresh vector<vector>
  // lattice per solve dominated the manager's cost. Flat row-major storage,
  // same iteration order, identical results.
  std::vector<double> dp_;            // (n+1) x (bins+1)
  std::vector<std::size_t> choice_;   // n x (bins+1)
  std::vector<double> pred_bips_;     // n x levels
  std::vector<std::size_t> pred_cost_;  // n x levels
};

}  // namespace cpm::core
