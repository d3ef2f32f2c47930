#include "sim/memory.h"

#include <gtest/gtest.h>

namespace cpm::sim {
namespace {

TEST(Memory, RejectsNonPositiveCapacity) {
  EXPECT_THROW(MemorySystem(0.0), std::invalid_argument);
  EXPECT_THROW(MemorySystem(-1.0), std::invalid_argument);
}

TEST(Memory, InitialCongestionZero) {
  MemorySystem m(4.0);
  EXPECT_DOUBLE_EQ(m.congestion(), 0.0);
}

TEST(Memory, CongestionIsDemandOverCapacity) {
  MemorySystem m(4.0);
  m.update(2.0);
  EXPECT_DOUBLE_EQ(m.congestion(), 0.5);
  m.update(8.0);
  EXPECT_DOUBLE_EQ(m.congestion(), 2.0);
}

TEST(Memory, NegativeDemandClamped) {
  MemorySystem m(4.0);
  m.update(-3.0);
  EXPECT_DOUBLE_EQ(m.congestion(), 0.0);
}

TEST(Memory, OneTickDelaySemantics) {
  // congestion() reflects the previous update, not the current one.
  MemorySystem m(1.0);
  EXPECT_DOUBLE_EQ(m.congestion(), 0.0);
  m.update(1.0);
  EXPECT_DOUBLE_EQ(m.congestion(), 1.0);
}

}  // namespace
}  // namespace cpm::sim
