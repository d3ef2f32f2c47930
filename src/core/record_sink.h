// Pluggable record sinks: where the per-interval PIC/GPM records produced by
// a SimulationRun go. The default InMemorySink keeps the full trace (the
// historical behaviour); BoundedSink caps resident storage with a ring buffer
// or a stride-doubling decimator so week-long runs hold O(capacity) records;
// StreamingSink spills every record to CSV or JSONL through trace_io so the
// full trace lands on disk instead of RAM. Every sink additionally maintains
// exact streaming aggregates (util::RunningStats + ChipTrackingAccumulator)
// over *all* records it ever saw, so tracking metrics stay exact even when
// the retained trace is bounded.
#pragma once

#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/types.h"
#include "util/stats.h"

namespace cpm::core {

struct SimulationResult;

class RecordSink {
 public:
  virtual ~RecordSink() = default;

  void record_pic(const PicIntervalRecord& rec);
  void record_gpm(const GpmIntervalRecord& rec);
  /// Called once by SimulationRun::finish(): moves whatever the sink
  /// retained into `result` and stamps the seen-record counts.
  void finish(SimulationResult& result);

  /// Total records observed (>= the number retained for bounded sinks).
  std::size_t pic_records_seen() const noexcept { return pic_seen_; }
  std::size_t gpm_records_seen() const noexcept { return gpm_seen_; }

  /// Exact aggregates over every GPM record observed, independent of how
  /// many records the sink retains.
  const util::RunningStats& gpm_power_stats() const noexcept {
    return gpm_power_stats_;
  }
  const util::RunningStats& gpm_bips_stats() const noexcept {
    return gpm_bips_stats_;
  }
  const ChipTrackingAccumulator& tracking() const noexcept { return tracking_; }

 protected:
  virtual void on_pic(const PicIntervalRecord& rec) = 0;
  virtual void on_gpm(const GpmIntervalRecord& rec) = 0;
  virtual void on_finish(SimulationResult& result) = 0;

 private:
  std::size_t pic_seen_ = 0;
  std::size_t gpm_seen_ = 0;
  util::RunningStats gpm_power_stats_;
  util::RunningStats gpm_bips_stats_;
  ChipTrackingAccumulator tracking_;
};

/// Keeps every record; finish() hands the full trace to the result. This is
/// the default sink and reproduces the pre-sink behaviour bit for bit.
class InMemorySink : public RecordSink {
 protected:
  void on_pic(const PicIntervalRecord& rec) override;
  void on_gpm(const GpmIntervalRecord& rec) override;
  void on_finish(SimulationResult& result) override;

 private:
  std::vector<PicIntervalRecord> pic_;
  std::vector<GpmIntervalRecord> gpm_;
};

struct BoundedSinkConfig {
  /// Maximum retained records per stream (must be >= 2).
  std::size_t pic_capacity = 4096;
  std::size_t gpm_capacity = 512;
  enum class Policy {
    /// Ring buffer: keep the most recent `capacity` records.
    kKeepLast,
    /// Stride-doubling decimation: keep every 2^k-th record, doubling k
    /// whenever the buffer fills, so the retained trace always spans the
    /// whole run at uniform (halving) resolution.
    kDecimate,
  };
  Policy policy = Policy::kKeepLast;
};

/// Stride-doubling decimated series (BoundedSinkConfig::Policy::kDecimate):
/// keeps the samples whose absolute index is a multiple of `stride`. When
/// `values` already holds `capacity` samples, every other one is dropped and
/// the stride doubles (the survivors are exactly the multiples of the doubled
/// stride), so the retained series always spans the whole stream at uniform,
/// halving resolution. Capacity 0 keeps everything; otherwise it must be at
/// least 2. Used by BoundedSink and by the cluster's epoch series.
template <typename T>
struct DecimatedSeries {
  std::size_t capacity = 0;
  std::size_t stride = 1;
  std::size_t next_abs = 0;  // absolute index of the next sample
  std::vector<T> values;

  void push(const T& value) {
    const std::size_t abs = next_abs++;
    if (abs % stride != 0) return;
    if (capacity != 0 && values.size() == capacity) {
      for (std::size_t i = 0; 2 * i < values.size(); ++i) {
        values[i] = std::move(values[2 * i]);
      }
      values.resize((values.size() + 1) / 2);
      stride *= 2;
      if (abs % stride != 0) return;
    }
    values.push_back(value);
  }
};

/// Bounded-memory sink: resident storage never exceeds the configured
/// capacities regardless of run length.
class BoundedSink : public RecordSink {
 public:
  explicit BoundedSink(BoundedSinkConfig config = {});

  const BoundedSinkConfig& config() const noexcept { return config_; }

 protected:
  void on_pic(const PicIntervalRecord& rec) override;
  void on_gpm(const GpmIntervalRecord& rec) override;
  void on_finish(SimulationResult& result) override;

 private:
  /// `values` holds the retained records under either policy; the ring
  /// (kKeepLast) reuses it as circular storage.
  template <typename Record>
  struct Buffer : DecimatedSeries<Record> {
    BoundedSinkConfig::Policy policy = BoundedSinkConfig::Policy::kKeepLast;
    std::size_t head = 0;  // ring: index of the oldest record

    void push(const Record& rec);
    std::vector<Record> take();  // retained records in time order
  };

  BoundedSinkConfig config_;
  Buffer<PicIntervalRecord> pic_;
  Buffer<GpmIntervalRecord> gpm_;
};

struct StreamingSinkConfig {
  enum class Format { kCsv, kJsonl };
  Format format = Format::kCsv;
};

/// Streams every record to a pair of output streams (CSV in the exact
/// trace_io format, so read_pic_trace_csv/read_gpm_trace_csv round-trip it,
/// or JSONL with one object per line). Retains nothing in memory: the
/// result's record vectors come back empty and the trace lives on disk.
/// finish() throws std::runtime_error naming the stream when either one
/// is in a failed state after the final flush.
class StreamingSink : public RecordSink {
 public:
  StreamingSink(std::ostream& pic_out, std::ostream& gpm_out,
                StreamingSinkConfig config = {});

 protected:
  void on_pic(const PicIntervalRecord& rec) override;
  void on_gpm(const GpmIntervalRecord& rec) override;
  void on_finish(SimulationResult& result) override;

 private:
  std::ostream* pic_out_;
  std::ostream* gpm_out_;
  StreamingSinkConfig config_;
  bool pic_header_written_ = false;
  bool gpm_header_written_ = false;
};

/// Opens `<prefix>_pic.<ext>` and `<prefix>_gpm.<ext>` (ext = csv or jsonl)
/// and returns a StreamingSink that owns the files. Throws std::runtime_error
/// when a file cannot be opened.
std::unique_ptr<RecordSink> make_streaming_file_sink(
    const std::string& prefix,
    StreamingSinkConfig::Format format = StreamingSinkConfig::Format::kCsv);

}  // namespace cpm::core
