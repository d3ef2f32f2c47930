// Lightweight leveled logger. Simulation code logs through this so tests can
// silence output and benches can enable tracing with an env var
// (CPM_LOG=debug|info|warn|error|off).
//
// Output is routed through a pluggable LogSink (default: stderr behind a
// mutex) -- the same sink-style indirection the event tracer uses -- so a
// process whose stdout carries machine-readable output (cpm_sim_cli CSV)
// can never have log lines interleaved into it, and tools can
// redirect logs to a file (`cpm_sim_cli --log-file`). When a trace session
// is active every emitted line is also mirrored onto the trace timeline as
// an instant event, so controller logs line up with the spans around them.
#pragma once

#include <memory>
#include <optional>
#include <sstream>
#include <string>

namespace cpm::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log threshold; defaults from the CPM_LOG environment variable
/// (unset -> warn).
LogLevel log_threshold() noexcept;
void set_log_threshold(LogLevel level) noexcept;

/// Destination for formatted log lines. Implementations must be safe to
/// call from multiple threads (the built-in sinks serialize internally).
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void write(LogLevel level, const std::string& line) = 0;
};

/// Replaces the process-wide log sink (nullptr restores the stderr
/// default). The previous sink is returned so callers can restore it; the
/// registry keeps the new sink alive until the next swap.
std::shared_ptr<LogSink> set_log_sink(std::shared_ptr<LogSink> sink);

/// Opens `path` (append mode) and routes all log lines to it. Throws
/// std::runtime_error when the file cannot be opened.
std::shared_ptr<LogSink> make_file_log_sink(const std::string& path);

/// Formats and emits a line if `level` passes the threshold: through the
/// active sink, and -- when a trace session is running -- mirrored as an
/// instant event on the trace timeline.
void log_line(LogLevel level, const std::string& message);

namespace detail {
/// One log statement. Whether `level` passes the threshold is decided once,
/// at construction: a filtered statement builds no stream and formats none
/// of its operands (a `log_debug() << ...` on a hot path costs a load and a
/// compare).
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {
    if (static_cast<int>(level) >= static_cast<int>(log_threshold())) {
      stream_.emplace();
    }
  }
  ~LogStream() {
    if (stream_) log_line(level_, stream_->str());
  }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& value) {
    if (stream_) *stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::optional<std::ostringstream> stream_;
};
}  // namespace detail

inline detail::LogStream log_debug() { return detail::LogStream(LogLevel::kDebug); }
inline detail::LogStream log_info() { return detail::LogStream(LogLevel::kInfo); }
inline detail::LogStream log_warn() { return detail::LogStream(LogLevel::kWarn); }
inline detail::LogStream log_error() { return detail::LogStream(LogLevel::kError); }

}  // namespace cpm::util
