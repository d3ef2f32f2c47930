#include "util/isa.h"

namespace cpm::util {

Isa detect_host_isa() noexcept {
#if CPM_HAVE_AVX2_KERNELS
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
  return Isa::kBaseline;
}

std::string_view isa_name(Isa isa) noexcept {
  return isa == Isa::kAvx2 ? "avx2" : "baseline";
}

}  // namespace cpm::util
