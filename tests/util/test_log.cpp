#include "util/log.h"

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace cpm::util {
namespace {

/// Counts how often it is formatted.
struct Counted {
  int* calls;
};

std::ostream& operator<<(std::ostream& os, const Counted& c) {
  ++*c.calls;
  return os << "counted";
}

class CaptureSink final : public LogSink {
 public:
  void write(LogLevel, const std::string& line) override {
    lines.push_back(line);
  }
  std::vector<std::string> lines;
};

/// Swaps in a capturing sink and restores the sink and threshold on exit.
class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_threshold_ = log_threshold();
    saved_sink_ = set_log_sink(sink_);
  }
  void TearDown() override {
    set_log_sink(saved_sink_);
    set_log_threshold(saved_threshold_);
  }
  std::shared_ptr<CaptureSink> sink_ = std::make_shared<CaptureSink>();

 private:
  LogLevel saved_threshold_ = LogLevel::kWarn;
  std::shared_ptr<LogSink> saved_sink_;
};

TEST_F(LogTest, FilteredLineFormatsNoOperand) {
  int calls = 0;
  set_log_threshold(LogLevel::kWarn);
  log_info() << "value " << Counted{&calls};
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(sink_->lines.empty());

  set_log_threshold(LogLevel::kInfo);
  log_info() << "value " << Counted{&calls};
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(sink_->lines.size(), 1u);
  EXPECT_EQ(sink_->lines[0], "value counted");
}

TEST_F(LogTest, ThresholdIsInclusiveAndOffSilencesErrors) {
  int calls = 0;
  set_log_threshold(LogLevel::kWarn);
  log_warn() << Counted{&calls};
  log_debug() << Counted{&calls};
  EXPECT_EQ(calls, 1);
  set_log_threshold(LogLevel::kOff);
  log_error() << Counted{&calls};
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(sink_->lines.size(), 1u);
}

}  // namespace
}  // namespace cpm::util
