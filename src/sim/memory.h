// Shared memory subsystem: converts aggregate bandwidth demand from all cores
// into a congestion factor that feeds back into per-instruction memory stall
// time. This is what couples co-scheduled applications across islands (the
// paper's motivation for coordinated, rather than purely local, management).
#pragma once

namespace cpm::sim {

class MemorySystem {
 public:
  /// `bandwidth_capacity` is in the same (BIPS x demand) units the cores
  /// report.
  explicit MemorySystem(double bandwidth_capacity);

  /// Congestion used for the *current* tick (one-tick-delayed feedback so the
  /// per-tick computation needs no fixpoint iteration).
  double congestion() const noexcept { return congestion_; }

  /// Records the total demand of the tick just computed.
  void update(double total_bandwidth_demand) noexcept;

  double capacity() const noexcept { return capacity_; }

 private:
  double capacity_;
  double congestion_ = 0.0;
};

}  // namespace cpm::sim
