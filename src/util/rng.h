// Deterministic random number generation for reproducible simulations.
//
// All stochasticity in the simulator flows through Xoshiro256pp seeded from a
// single experiment seed, so identical configurations produce bit-identical
// traces across runs and platforms (no std::mt19937 distribution portability
// issues: the distributions here are implemented in-house).
#pragma once

#include <array>
#include <cstdint>

namespace cpm::util {

/// xoshiro256++ by Blackman & Vigna: fast, high-quality, 256-bit state.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64.
  explicit Xoshiro256pp(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  // Defined inline: the generator step and the per-tick noise draw sit on
  // the simulator's innermost loop (3 draws per core per tick), where the
  // out-of-line call was measurable in whole-chip sweeps.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Unbiased via rejection (Lemire-style).
  std::uint64_t uniform_int(std::uint64_t n) noexcept;

  /// Standard normal via Box-Muller (cached second deviate).
  double normal() noexcept;

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Cheap approximate standard normal for per-tick noise: an Irwin-Hall(3)
  /// sum of three 21-bit uniforms carved from a single generator draw,
  /// shifted/scaled to mean ~0, stddev ~1. One xoshiro step plus exact
  /// integer->double arithmetic (no log/sqrt/trig), so it is an order of
  /// magnitude cheaper than normal() and bit-portable across platforms.
  /// Range is [-3, 3] and tails beyond ~2.5 sigma are thin vs a true
  /// normal -- fine for bounded multiplicative demand noise, wrong for
  /// anything that cares about extreme deviates (use normal() there).
  double fast_normal() noexcept {
    const std::uint64_t bits = (*this)();
    const double a = static_cast<double>(bits & 0x1FFFFFu);
    const double b = static_cast<double>((bits >> 21) & 0x1FFFFFu);
    const double c = static_cast<double>((bits >> 42) & 0x1FFFFFu);
    // Irwin-Hall(3) on [0,1): mean 1.5, stddev 0.5 -> shift and double.
    return ((a + b + c) * 0x1.0p-21 - 1.5) * 2.0;
  }

  /// Three approximate standard normals from ONE generator step: the 64-bit
  /// draw splits into three 21-bit fields, each mapped to an Irwin-Hall(3)
  /// deviate exactly like fast_normal()'s -- same bell shape, same [-3, 3]
  /// range, same unit stddev -- just built from three 7-bit halves instead
  /// of three 21-bit ones (the +1.5 half-step keeps the coarser lattice
  /// mean-exact). One xoshiro step instead of three serially-dependent ones:
  /// this is the per-tick demand-noise workhorse. ~7-bit resolution per
  /// uniform: fine for bounded multiplicative noise, wrong for anything
  /// distribution-sensitive (use normal() there). Exact integer arithmetic
  /// and one integer->double conversion per deviate, then an exact scale,
  /// so results are bit-portable across IEEE-754 platforms.
  void fast_normal3(double& n0, double& n1, double& n2) noexcept {
    const std::uint64_t bits = (*this)();
    n0 = irwin_hall21(bits & 0x1FFFFFu);
    n1 = irwin_hall21((bits >> 21) & 0x1FFFFFu);
    n2 = irwin_hall21((bits >> 42) & 0x1FFFFFu);
  }

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Derives an independent child stream (for per-core RNGs).
  Xoshiro256pp fork() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  /// 21-bit field -> Irwin-Hall(3) deviate with mean exactly 0, stddev ~1:
  /// the three 7-bit sevenths are uniform on [0, 128); their sum s, shifted
  /// by +1.5 (so the lattice midpoint, not its left edge, maps to zero), is
  /// bell-shaped with mean 1.5 and stddev ~0.5 after the 2^-7
  /// normalization, matching fast_normal()'s shift-and-double:
  /// ((s + 1.5) * 2^-7 - 1.5) * 2. Every step of that formula is exact in
  /// double (s <= 381), so it equals (2s - 381) * 2^-7 bit for bit, which
  /// needs one integer->double conversion and one multiply.
  static double irwin_hall21(std::uint64_t field) noexcept {
    const int sum = static_cast<int>(field & 0x7Fu) +
                    static_cast<int>((field >> 7) & 0x7Fu) +
                    static_cast<int>((field >> 14) & 0x7Fu);
    return static_cast<double>(2 * sum - 381) * 0x1.0p-7;
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// SplitMix64 step; used for seeding and stream derivation.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

}  // namespace cpm::util
