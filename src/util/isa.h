// Kernel ISA dispatch for the plant tick's vectorized loops.
//
// Each tagged kernel (workload clock and demand, micro-model, power, RC
// step, hotspot) is one always-inline loop body. dispatch_kernel<Body>
// compiles that body into one wrapper per tier and calls the wrapper of
// the tier it is given:
//
//   kBaseline  the target the tree is compiled for (SSE2's 2 doubles per
//              vector on plain x86-64);
//   kAvx2      CPM_TARGET_AVX2, 4 doubles per vector;
//   kAvx512    CPM_TARGET_AVX512, 8 doubles per vector.
//
// The loops are element-wise, so the tiers are bit-identical as long as no
// multiply-add contracts into an FMA. The AVX2 target deliberately excludes
// FMA; AVX-512F includes it, so the tree is built with -ffp-contract=off
// (on cpm_util, PUBLIC; see src/util/CMakeLists.txt). Each kernel entry
// takes an Isa and the production callers pass host_isa(), which every
// process detects once; tests pass each tier of host_isas() to prove the
// wrappers agree. There is no knob: the host decides.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define CPM_HAVE_X86_KERNELS 1
#define CPM_TARGET_AVX2 [[gnu::target("avx2")]]
// x86-64-v4's AVX-512 subset; detect_host_isa() checks each feature it
// enables, the implied ones included.
#define CPM_TARGET_AVX512 \
  [[gnu::target("avx512f,avx512dq,avx512vl,avx512bw")]]
#else
#define CPM_HAVE_X86_KERNELS 0
#endif

#define CPM_ALWAYS_INLINE [[gnu::always_inline]] inline

namespace cpm::util {

/// Kernel tiers, narrowest first: a host that runs one tier runs every
/// tier before it.
enum class Isa : std::uint8_t { kBaseline, kAvx2, kAvx512 };

inline constexpr std::array<Isa, 3> kIsas{Isa::kBaseline, Isa::kAvx2,
                                          Isa::kAvx512};

/// The widest kernel tier this host runs: the CPU reports every feature
/// the tier's target enables and the build has its wrappers.
Isa detect_host_isa() noexcept;

inline Isa host_isa() noexcept {
  static const Isa isa = detect_host_isa();
  return isa;
}

/// Every tier this host runs, kBaseline first (kIsas up to host_isa()).
std::span<const Isa> host_isas() noexcept;

/// "baseline", "avx2" or "avx512".
std::string_view isa_name(Isa isa) noexcept;

namespace detail {

// One kernel body's wrappers. Body is inlined into each (it is always
// inline, and a target wrapper may inline a function built for a subset of
// its ISA), so each carries its own copy of the loop at its tier's width.
template <auto Body>
struct KernelWrappers {
  template <typename... Args>
  static auto baseline(Args... args) noexcept {
    return Body(args...);
  }
#if CPM_HAVE_X86_KERNELS
  template <typename... Args>
  CPM_TARGET_AVX2 static auto avx2(Args... args) noexcept {
    return Body(args...);
  }
  template <typename... Args>
  CPM_TARGET_AVX512 static auto avx512(Args... args) noexcept {
    return Body(args...);
  }
#endif
};

}  // namespace detail

/// Runs the kernel body `Body` (a CPM_ALWAYS_INLINE function) on `args`
/// through its wrapper for `isa`. A tier the build has no wrappers for runs
/// the baseline one.
template <auto Body, typename... Args>
CPM_ALWAYS_INLINE auto dispatch_kernel(Isa isa, Args... args) noexcept {
  using Wrappers = detail::KernelWrappers<Body>;
#if CPM_HAVE_X86_KERNELS
  switch (isa) {
    case Isa::kAvx512:
      return Wrappers::avx512(args...);
    case Isa::kAvx2:
      return Wrappers::avx2(args...);
    case Isa::kBaseline:
      break;
  }
#endif
  (void)isa;
  return Wrappers::baseline(args...);
}

}  // namespace cpm::util
