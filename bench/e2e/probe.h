// Measurement plumbing owned by the benchmark: a host clock, FNV-1a digests
// of the simulator's output, a clock that cuts a rep into one segment per
// simulated GPM window, a record sink that folds every record into a digest
// (and, when asked, times the sinks it wraps or feeds that clock), and an
// in-memory log of the benchmark's own spans. Nothing here reaches into the
// library: the sink only sees what any RecordSink sees.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/record_sink.h"
#include "core/simulation.h"

namespace cpm::e2e {

/// Monotonic host time in seconds (arbitrary origin).
double host_now_s();

/// 64-bit FNV-1a over the byte images of the values folded in.
class Digest {
 public:
  void add(double v) noexcept;
  void add(std::uint64_t v) noexcept;
  void add(const std::vector<double>& values) noexcept;
  std::uint64_t value() const noexcept { return h_; }

 private:
  void bytes(const void* data, std::size_t n) noexcept;
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Folds the end-of-run aggregates of one simulation into `d`.
void fold_result(Digest& d, const core::SimulationResult& result);

/// Cuts a single-threaded rep into segments at every GPM record, over all
/// chips in arrival order, so each segment is about one chip simulating one
/// GPM window. The simulation is deterministic: segment i holds the same
/// work in every rep of a workload, and its minimum over the reps is its host
/// time with the least interference.
class SegmentClock {
 public:
  void start();
  void stamp(double now_s);
  /// Closes the last segment and returns every segment's host time, us.
  std::vector<float> finish();

 private:
  double last_s_ = 0.0;
  std::vector<float> us_;
};

struct ProbeOptions {
  /// Stamp every GPM record into this clock (single-threaded reps only).
  SegmentClock* segments = nullptr;
  /// Time every forward into the wrapped sink (traced runs only: two clock
  /// reads per record).
  bool time_forward = false;
};

/// RecordSink decorator: folds every PIC/GPM record and the final result
/// into a digest, accumulates the budget-tracking error over GPM windows,
/// and forwards each record to `inner` through its public entry points.
class ProbeSink : public core::RecordSink {
 public:
  /// GPM windows skipped before the budget error accumulates (the first
  /// windows run on the initial even split, before the GPM has acted).
  static constexpr std::size_t kWarmupWindows = 2;

  /// Borrows `inner`, which must outlive the probe.
  ProbeSink(core::RecordSink& inner, ProbeOptions options);
  /// Owns `inner`. `on_done` runs at the end of finish() while the probe is
  /// still alive: the hook for sinks that ClusterPowerManager::run creates
  /// and destroys itself.
  ProbeSink(std::unique_ptr<core::RecordSink> inner, ProbeOptions options,
            std::function<void(const ProbeSink&)> on_done);

  std::uint64_t digest() const noexcept { return digest_.value(); }
  /// Mean |chip power - budget| / budget over the windows after warm-up, %.
  double budget_err_pct() const noexcept;
  std::size_t gpm_windows() const noexcept { return gpm_seen_; }
  std::uint64_t records() const noexcept { return records_; }
  double forward_ns() const noexcept { return forward_ns_; }

 protected:
  void on_pic(const core::PicIntervalRecord& rec) override;
  void on_gpm(const core::GpmIntervalRecord& rec) override;
  void on_finish(core::SimulationResult& result) override;

 private:
  std::unique_ptr<core::RecordSink> owned_inner_;
  core::RecordSink* inner_;
  ProbeOptions options_;
  std::function<void(const ProbeSink&)> on_done_;
  Digest digest_;
  std::size_t gpm_seen_ = 0;
  std::uint64_t records_ = 0;
  double err_sum_ = 0.0;
  std::size_t err_count_ = 0;
  double forward_ns_ = 0.0;
};

/// One span recorded by the benchmark itself (not by the library).
struct BenchSpan {
  std::string name;
  int lane = 0;  // 0 = the thread that created the log; workers 1, 2, ...
  double ts_us = 0.0;
  double dur_us = 0.0;
};

/// In-memory log of benchmark spans, on the library trace session's clock so
/// both land on one timeline. Recording is off unless enabled.
class SpanLog {
 public:
  static SpanLog& global();

  void enable(bool on);
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void add(BenchSpan span);
  std::vector<BenchSpan> take();
  /// Lane of the calling thread (0 for the thread that created the log).
  int lane();

 private:
  SpanLog();

  std::thread::id main_thread_;
  std::atomic<int> next_lane_{1};
  std::mutex mu_;  // guards spans_
  std::atomic<bool> enabled_{false};
  std::vector<BenchSpan> spans_;
};

/// RAII span into SpanLog::global() (inert when the log is disabled).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  bool armed_;
  double start_us_ = 0.0;
};

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

}  // namespace cpm::e2e
