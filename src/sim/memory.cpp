#include "sim/memory.h"

#include <algorithm>
#include <stdexcept>

namespace cpm::sim {

MemorySystem::MemorySystem(double bandwidth_capacity)
    : capacity_(bandwidth_capacity) {
  if (capacity_ <= 0.0) {
    throw std::invalid_argument("MemorySystem: capacity must be positive");
  }
}

void MemorySystem::update(double total_bandwidth_demand) noexcept {
  congestion_ = std::max(0.0, total_bandwidth_demand) / capacity_;
}

}  // namespace cpm::sim
