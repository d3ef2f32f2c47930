#include "thermal/hotspot.h"

#include <cstdint>
#include <stdexcept>

namespace cpm::thermal {

namespace {

// Branch-free so it vectorizes: a cool core adds +0.0, which leaves its
// total (never -0.0: it starts at +0.0 and only grows) bit-unchanged. The
// any-hot flag is a 64-bit OR, a reduction GCC vectorizes next to the
// double compare (a bool or a count does not).
CPM_ALWAYS_INLINE bool hotspot_body(std::size_t n,
                                    const double* __restrict temps,
                                    const double* __restrict threshold,
                                    double dt_seconds,
                                    double* __restrict core_hot) noexcept {
  std::uint64_t hot_seen = 0;
  // vectorize: thermal.hotspot
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t hot = temps[i] > threshold[i] ? 1 : 0;
    core_hot[i] += hot != 0 ? dt_seconds : 0.0;
    hot_seen |= hot;
  }
  return hot_seen != 0;
}

}  // namespace

namespace kernels {

bool hotspot_accumulate(util::Isa isa, std::size_t n, const double* temps_c,
                        const double* threshold_c, double dt_seconds,
                        double* core_hot_s) noexcept {
  return util::dispatch_kernel<&hotspot_body>(isa, n, temps_c, threshold_c,
                                              dt_seconds, core_hot_s);
}

}  // namespace kernels

HotspotDetector::HotspotDetector(std::size_t num_cores, double threshold_c)
    : threshold_c_(num_cores, threshold_c), core_hot_s_(num_cores, 0.0) {
  if (num_cores == 0) {
    throw std::invalid_argument("HotspotDetector: need at least one core");
  }
}

bool HotspotDetector::record(std::span<const double> temps_c,
                             double dt_seconds) {
  if (temps_c.size() != core_hot_s_.size()) {
    throw std::invalid_argument("HotspotDetector::record: size mismatch");
  }
  observed_s_ += dt_seconds;
  const bool any_hot =
      kernels::hotspot_accumulate(util::host_isa(), temps_c.size(),
                                  temps_c.data(), threshold_c_.data(),
                                  dt_seconds, core_hot_s_.data());
  if (any_hot) {
    hot_s_ += dt_seconds;
    if (!was_hot_) ++events_;
  }
  was_hot_ = any_hot;
  return any_hot;
}

double HotspotDetector::hot_fraction() const noexcept {
  return observed_s_ > 0.0 ? hot_s_ / observed_s_ : 0.0;
}

void HotspotDetector::reset() {
  observed_s_ = 0.0;
  hot_s_ = 0.0;
  std::fill(core_hot_s_.begin(), core_hot_s_.end(), 0.0);
  events_ = 0;
  was_hot_ = false;
}

}  // namespace cpm::thermal
