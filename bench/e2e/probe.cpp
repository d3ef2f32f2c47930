// cpm-lint: allow-file(determinism) host-time benchmark: clock reads are the measurement and never feed the simulation
#include "probe.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

#include "util/trace.h"

namespace cpm::e2e {

double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Digest::bytes(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) noexcept { bytes(&v, sizeof v); }

void Digest::add(std::uint64_t v) noexcept { bytes(&v, sizeof v); }

void Digest::add(const std::vector<double>& values) noexcept {
  add(static_cast<std::uint64_t>(values.size()));
  for (const double v : values) add(v);
}

void fold_result(Digest& d, const core::SimulationResult& result) {
  d.add(result.duration_s);
  d.add(result.total_instructions);
  d.add(result.avg_chip_power_w);
  d.add(result.avg_chip_bips);
  d.add(result.hotspot_fraction);
  d.add(result.dvfs_transitions);
  d.add(static_cast<std::uint64_t>(result.pic_records_seen));
  d.add(static_cast<std::uint64_t>(result.gpm_records_seen));
  d.add(result.island_instructions);
  d.add(result.island_energy_j);
}

void SegmentClock::start() {
  us_.clear();
  last_s_ = host_now_s();
}

void SegmentClock::stamp(double now_s) {
  us_.push_back(static_cast<float>((now_s - last_s_) * 1e6));
  last_s_ = now_s;
}

std::vector<float> SegmentClock::finish() {
  stamp(host_now_s());
  return std::exchange(us_, {});
}

ProbeSink::ProbeSink(core::RecordSink& inner, ProbeOptions options)
    : inner_(&inner), options_(options) {}

ProbeSink::ProbeSink(std::unique_ptr<core::RecordSink> inner,
                     ProbeOptions options,
                     std::function<void(const ProbeSink&)> on_done)
    : owned_inner_(std::move(inner)),
      inner_(owned_inner_.get()),
      options_(options),
      on_done_(std::move(on_done)) {}

double ProbeSink::budget_err_pct() const noexcept {
  return err_count_ ? 100.0 * err_sum_ / static_cast<double>(err_count_) : 0.0;
}

void ProbeSink::on_pic(const core::PicIntervalRecord& rec) {
  digest_.add(rec.time_s);
  digest_.add(static_cast<std::uint64_t>(rec.island));
  digest_.add(rec.target_w);
  digest_.add(rec.sensed_w);
  digest_.add(rec.actual_w);
  digest_.add(rec.freq_ghz);
  ++records_;
  if (options_.time_forward) {
    const double t0 = host_now_s();
    inner_->record_pic(rec);
    forward_ns_ += (host_now_s() - t0) * 1e9;
  } else {
    inner_->record_pic(rec);
  }
}

void ProbeSink::on_gpm(const core::GpmIntervalRecord& rec) {
  if (options_.segments) options_.segments->stamp(host_now_s());
  digest_.add(rec.time_s);
  digest_.add(rec.chip_actual_w);
  digest_.add(rec.chip_budget_w);
  digest_.add(rec.chip_bips);
  digest_.add(rec.max_temp_c);
  digest_.add(rec.island_alloc_w);
  digest_.add(rec.island_actual_w);
  if (gpm_seen_ >= kWarmupWindows && rec.chip_budget_w > 0.0) {
    err_sum_ += std::abs(rec.chip_actual_w - rec.chip_budget_w) /
                rec.chip_budget_w;
    ++err_count_;
  }
  ++gpm_seen_;
  ++records_;
  if (options_.time_forward) {
    const double t0 = host_now_s();
    inner_->record_gpm(rec);
    forward_ns_ += (host_now_s() - t0) * 1e9;
  } else {
    inner_->record_gpm(rec);
  }
}

void ProbeSink::on_finish(core::SimulationResult& result) {
  inner_->finish(result);
  fold_result(digest_, result);
  if (on_done_) on_done_(*this);
}

SpanLog::SpanLog() : main_thread_(std::this_thread::get_id()) {}

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

int SpanLog::lane() {
  thread_local int lane = -1;
  if (lane < 0) {
    lane = std::this_thread::get_id() == main_thread_
               ? 0
               : next_lane_.fetch_add(1, std::memory_order_relaxed);
  }
  return lane;
}

void SpanLog::enable(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void SpanLog::add(BenchSpan span) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<BenchSpan> SpanLog::take() {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(spans_, {});
}

ScopedSpan::ScopedSpan(const char* name)
    : name_(name), armed_(SpanLog::global().enabled()) {
  if (armed_) start_us_ = util::trace::now_us();
}

ScopedSpan::~ScopedSpan() {
  if (!armed_) return;
  const double end_us = util::trace::now_us();
  SpanLog& log = SpanLog::global();
  log.add(BenchSpan{name_, log.lane(), start_us_, end_us - start_us_});
}

double peak_rss_mb() {
  // VmHWM belongs to this address space; getrusage's ru_maxrss would also
  // count the parent's footprint, which survives the exec into this binary.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace cpm::e2e
