#include "util/isa.h"

namespace cpm::util {

Isa detect_host_isa() noexcept {
#if CPM_HAVE_X86_KERNELS
  __builtin_cpu_init();
  // Every feature each target string enables: "avx2" implies AVX, SSE3
  // through SSE4.2, POPCNT and XSAVE, and the AVX-512 set implies AVX2.
  // XSAVE needs no check of its own: "avx" is reported only when the OS
  // has enabled the XSAVE-managed vector state.
  const bool avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("avx") &&
      __builtin_cpu_supports("sse4.2") && __builtin_cpu_supports("sse4.1") &&
      __builtin_cpu_supports("ssse3") && __builtin_cpu_supports("sse3") &&
      __builtin_cpu_supports("popcnt");
  if (avx2 && __builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512bw")) {
    return Isa::kAvx512;
  }
  if (avx2) return Isa::kAvx2;
#endif
  return Isa::kBaseline;
}

std::span<const Isa> host_isas() noexcept {
  return std::span<const Isa>(kIsas).first(
      static_cast<std::size_t>(host_isa()) + 1);
}

std::string_view isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kBaseline:
      break;
  }
  return "baseline";
}

}  // namespace cpm::util
