// Kernel ISA dispatch for the plant tick's vectorized loops.
//
// Each tagged kernel (workload demand, micro-model, power, hotspot) is one
// always-inline loop body compiled into two wrappers: a baseline one, built
// for the target the tree is compiled for (SSE2's 2 doubles per vector on
// plain x86-64), and a CPM_TARGET_AVX2 one, built for AVX2's 4. The AVX2
// target deliberately excludes FMA, so no multiply-add can contract and the
// loops stay element-wise, which makes both wrappers bit-identical. Each
// kernel entry takes an Isa and the production callers pass host_isa(),
// which every process detects once; tests pass both values to prove the
// wrappers agree. There is no knob: the host decides.
#pragma once

#include <cstdint>
#include <string_view>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define CPM_HAVE_AVX2_KERNELS 1
#define CPM_TARGET_AVX2 [[gnu::target("avx2")]]
#else
#define CPM_HAVE_AVX2_KERNELS 0
#endif

#define CPM_ALWAYS_INLINE [[gnu::always_inline]] inline

namespace cpm::util {

enum class Isa : std::uint8_t { kBaseline, kAvx2 };

/// The widest kernel ISA this host runs (kAvx2 when the CPU reports AVX2
/// and the build has AVX2 wrappers, else kBaseline), detected on first use.
Isa detect_host_isa() noexcept;

inline Isa host_isa() noexcept {
  static const Isa isa = detect_host_isa();
  return isa;
}

/// "baseline" or "avx2".
std::string_view isa_name(Isa isa) noexcept;

}  // namespace cpm::util
