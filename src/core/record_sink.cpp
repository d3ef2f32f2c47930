#include "core/record_sink.h"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/simulation.h"
#include "core/trace_io.h"

namespace cpm::core {

void RecordSink::record_pic(const PicIntervalRecord& rec) {
  ++pic_seen_;
  on_pic(rec);
}

void RecordSink::record_gpm(const GpmIntervalRecord& rec) {
  ++gpm_seen_;
  gpm_power_stats_.add(rec.chip_actual_w);
  gpm_bips_stats_.add(rec.chip_bips);
  tracking_.add(rec);
  on_gpm(rec);
}

void RecordSink::finish(SimulationResult& result) {
  result.pic_records_seen = pic_seen_;
  result.gpm_records_seen = gpm_seen_;
  on_finish(result);
}

// ---------------------------------------------------------------------------
// InMemorySink
// ---------------------------------------------------------------------------

void InMemorySink::on_pic(const PicIntervalRecord& rec) { pic_.push_back(rec); }

void InMemorySink::on_gpm(const GpmIntervalRecord& rec) { gpm_.push_back(rec); }

void InMemorySink::on_finish(SimulationResult& result) {
  result.pic_records = std::move(pic_);
  result.gpm_records = std::move(gpm_);
}

// ---------------------------------------------------------------------------
// BoundedSink
// ---------------------------------------------------------------------------

BoundedSink::BoundedSink(BoundedSinkConfig config) : config_(config) {
  if (config_.pic_capacity < 2 || config_.gpm_capacity < 2) {
    throw std::invalid_argument("BoundedSink: capacity must be >= 2");
  }
  pic_.capacity = config_.pic_capacity;
  gpm_.capacity = config_.gpm_capacity;
  pic_.policy = gpm_.policy = config_.policy;
}

template <typename Record>
void BoundedSink::Buffer<Record>::push(const Record& rec) {
  if (policy == BoundedSinkConfig::Policy::kDecimate) {
    DecimatedSeries<Record>::push(rec);
    return;
  }
  std::vector<Record>& ring = this->values;
  if (ring.size() < this->capacity) {
    ring.push_back(rec);
  } else {
    ring[head] = rec;
    if (++head == this->capacity) head = 0;
  }
}

template <typename Record>
std::vector<Record> BoundedSink::Buffer<Record>::take() {
  std::vector<Record>& kept = this->values;
  if (policy == BoundedSinkConfig::Policy::kKeepLast && head != 0) {
    std::vector<Record> ordered;
    ordered.reserve(kept.size());
    for (std::size_t i = 0; i < kept.size(); ++i) {
      ordered.push_back(std::move(kept[(head + i) % kept.size()]));
    }
    return ordered;
  }
  return std::move(kept);
}

void BoundedSink::on_pic(const PicIntervalRecord& rec) { pic_.push(rec); }

void BoundedSink::on_gpm(const GpmIntervalRecord& rec) { gpm_.push(rec); }

void BoundedSink::on_finish(SimulationResult& result) {
  result.pic_records = pic_.take();
  result.gpm_records = gpm_.take();
}

// ---------------------------------------------------------------------------
// StreamingSink
// ---------------------------------------------------------------------------

StreamingSink::StreamingSink(std::ostream& pic_out, std::ostream& gpm_out,
                             StreamingSinkConfig config)
    : pic_out_(&pic_out), gpm_out_(&gpm_out), config_(config) {}

void StreamingSink::on_pic(const PicIntervalRecord& rec) {
  if (config_.format == StreamingSinkConfig::Format::kCsv) {
    if (!pic_header_written_) {
      write_pic_trace_header(*pic_out_);
      pic_header_written_ = true;
    }
    write_pic_trace_row(*pic_out_, rec);
  } else {
    write_pic_record_jsonl(*pic_out_, rec);
  }
}

void StreamingSink::on_gpm(const GpmIntervalRecord& rec) {
  if (config_.format == StreamingSinkConfig::Format::kCsv) {
    if (!gpm_header_written_) {
      write_gpm_trace_header(*gpm_out_, rec.island_alloc_w.size());
      gpm_header_written_ = true;
    }
    write_gpm_trace_row(*gpm_out_, rec);
  } else {
    write_gpm_record_jsonl(*gpm_out_, rec);
  }
}

void StreamingSink::on_finish(SimulationResult&) {
  // An empty CSV trace still gets its header so the readers round-trip it.
  if (config_.format == StreamingSinkConfig::Format::kCsv) {
    if (!pic_header_written_) write_pic_trace_header(*pic_out_);
    if (!gpm_header_written_) write_gpm_trace_header(*gpm_out_, 0);
    pic_header_written_ = gpm_header_written_ = true;
  }
  pic_out_->flush();
  gpm_out_->flush();
  // A failed write (full disk, closed pipe) would otherwise lose the trace
  // silently: the result carries no records, so the streams are the output.
  if (!*pic_out_) {
    throw std::runtime_error("StreamingSink: writing the PIC trace failed");
  }
  if (!*gpm_out_) {
    throw std::runtime_error("StreamingSink: writing the GPM trace failed");
  }
}

namespace {

/// Owns the output files; inherited first so the streams outlive (and are
/// constructed before) the StreamingSink base that writes to them.
struct OwnedTraceFiles {
  std::ofstream pic;
  std::ofstream gpm;

  OwnedTraceFiles(const std::string& pic_path, const std::string& gpm_path)
      : pic(pic_path), gpm(gpm_path) {
    if (!pic) {
      throw std::runtime_error("StreamingSink: cannot open " + pic_path);
    }
    if (!gpm) {
      throw std::runtime_error("StreamingSink: cannot open " + gpm_path);
    }
  }
};

class FileStreamingSink : private OwnedTraceFiles, public StreamingSink {
 public:
  FileStreamingSink(const std::string& pic_path, const std::string& gpm_path,
                    StreamingSinkConfig config)
      : OwnedTraceFiles(pic_path, gpm_path),
        StreamingSink(OwnedTraceFiles::pic, OwnedTraceFiles::gpm, config) {}
};

}  // namespace

std::unique_ptr<RecordSink> make_streaming_file_sink(
    const std::string& prefix, StreamingSinkConfig::Format format) {
  const char* ext =
      format == StreamingSinkConfig::Format::kCsv ? ".csv" : ".jsonl";
  StreamingSinkConfig config;
  config.format = format;
  return std::make_unique<FileStreamingSink>(prefix + "_pic" + ext,
                                             prefix + "_gpm" + ext, config);
}

// Explicit instantiations keep the Buffer member templates out of the header.
template struct BoundedSink::Buffer<PicIntervalRecord>;
template struct BoundedSink::Buffer<GpmIntervalRecord>;

}  // namespace cpm::core
