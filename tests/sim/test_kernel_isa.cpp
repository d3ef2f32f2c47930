// ISA differential for the plant tick's kernels: each kernel's baseline and
// AVX2 wrappers (util/isa.h) must produce the same bits on the same inputs,
// at every length from 1 to 67 (vector bodies, remainders and lengths
// shorter than one vector), with NaN, infinities, -0.0 and values on each
// clamp bound mixed into the inputs.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "power/model.h"
#include "sim/chip.h"
#include "thermal/hotspot.h"
#include "util/isa.h"
#include "util/rng.h"
#include "workload/demand_bank.h"

namespace cpm {
namespace {

using util::Isa;

constexpr std::size_t kMaxLength = 67;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Seeded inputs: mostly uniform in [lo, hi), one in four drawn from the
/// special values (the non-finite ones, the signed zeros and the kernels'
/// clamp bounds).
class Inputs {
 public:
  explicit Inputs(std::uint64_t seed) : rng_(seed) {}

  std::vector<double> column(std::size_t n, double lo, double hi) {
    static constexpr std::array kSpecial{
        kNaN, kInf,  -kInf, 0.0,   -0.0,  0.5,    1.5,    0.7,   1.3,
        0.05, 1.2,   1.0,   -1.0,  80.0,  -708.0, 709.0,  1e300, -1e300};
    std::vector<double> values(n);
    for (double& v : values) {
      v = rng_.uniform_int(4) == 0
              ? kSpecial[rng_.uniform_int(kSpecial.size())]
              : rng_.uniform(lo, hi);
    }
    return values;
  }

  std::vector<std::uint64_t> words(std::size_t n) {
    std::vector<std::uint64_t> values(n);
    for (auto& v : values) v = rng_();
    return values;
  }

  std::vector<std::uint64_t> masks(std::size_t n) {
    std::vector<std::uint64_t> values(n);
    for (auto& v : values) v = rng_.uniform_int(2) == 0 ? 0 : ~std::uint64_t{0};
    return values;
  }

 private:
  util::Xoshiro256pp rng_;
};

/// "" when the two columns hold the same bits, else the first difference.
/// Two NaNs count as equal whatever their sign and payload: where two NaN
/// operands meet (an input NaN and one made by, say, inf * 0), x86 returns
/// the first operand's, and which operand of a commutative operation comes
/// first is the compiler's choice in each wrapper.
template <typename T>
std::string bit_diff(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return "length differs";
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto x = std::bit_cast<std::uint64_t>(a[i]);
    const auto y = std::bit_cast<std::uint64_t>(b[i]);
    if constexpr (std::is_floating_point_v<T>) {
      if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    }
    if (x != y) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "[%zu]: 0x%016llx vs 0x%016llx", i,
                    static_cast<unsigned long long>(x),
                    static_cast<unsigned long long>(y));
      return buf;
    }
  }
  return "";
}

class KernelIsa : public ::testing::Test {
 protected:
  void SetUp() override {
    if (util::host_isa() != Isa::kAvx2) {
      GTEST_SKIP() << "this host has no AVX2 (or the build has no AVX2 "
                      "wrappers): only the baseline kernels run here";
    }
  }
};

TEST_F(KernelIsa, DemandSweep) {
  using R = workload::DemandRows;
  for (std::size_t n = 1; n <= kMaxLength; ++n) {
    Inputs in(1000 + n);
    // Clocks straddle the ramp windows; every other column mixes the
    // special values into its range.
    std::vector<double> real;
    for (std::size_t c = 0; c < R::kRealColumns; ++c) {
      const bool clock = c == R::kTime || c == R::kLen || c == R::kRamp;
      const bool lerp = c >= R::kPrevCpi && c <= R::kStepAct;
      const auto column = clock  ? in.column(n, 0.0, 20.0)
                          : lerp ? in.column(n, -1.0, 2.0)
                          : c == R::kSigma  ? in.column(n, -0.5, 1.0)
                          : c == R::kActLo  ? in.column(n, 0.0, 0.5)
                          : c == R::kActHi  ? in.column(n, 0.5, 2.0)
                                            : in.column(n, 0.0, 3.0);
      real.insert(real.end(), column.begin(), column.end());
    }
    std::vector<std::uint64_t> word = in.masks(n);
    for (int k = 0; k < 4; ++k) {
      const auto column = in.words(n);
      word.insert(word.end(), column.begin(), column.end());
    }

    std::array<std::vector<double>, 2> state_real{real, real};
    std::array<std::vector<std::uint64_t>, 2> state_word{word, word};
    std::array<std::array<std::vector<double>, 4>, 2> out;
    const Isa isas[] = {Isa::kBaseline, Isa::kAvx2};
    for (int w = 0; w < 2; ++w) {
      for (auto& column : out[w]) column.assign(n, 0.0);
      workload::kernels::demand_sweep(
          isas[w], n, {state_real[w].data(), state_word[w].data(), n},
          {out[w][0].data(), out[w][1].data(), out[w][2].data(),
           out[w][3].data()});
    }
    EXPECT_EQ(bit_diff(state_real[0], state_real[1]), "") << "n " << n;
    EXPECT_EQ(bit_diff(state_word[0], state_word[1]), "") << "n " << n;
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(bit_diff(out[0][k], out[1][k]), "")
          << "n " << n << " out " << k;
    }
  }
}

TEST_F(KernelIsa, MicroModelSweep) {
  for (std::size_t n = 1; n <= kMaxLength; ++n) {
    Inputs in(2000 + n);
    const auto cpi = in.column(n, 0.5, 3.0);
    const auto mem = in.column(n, 0.0, 2.0);
    const auto dbw = in.column(n, 0.0, 1.0);
    const auto invf = in.column(n, 0.3, 1.0);
    const auto run = in.column(n, 0.0, 1.0);
    std::array<std::array<std::vector<double>, 4>, 2> out;
    const Isa isas[] = {Isa::kBaseline, Isa::kAvx2};
    for (int w = 0; w < 2; ++w) {
      for (auto& column : out[w]) column.assign(n, 0.0);
      sim::kernels::micro_model_sweep(
          isas[w], n, 1.3, 1e5, cpi.data(), mem.data(), dbw.data(),
          invf.data(), run.data(), out[w][0].data(), out[w][1].data(),
          out[w][2].data(), out[w][3].data());
    }
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(bit_diff(out[0][k], out[1][k]), "")
          << "n " << n << " out " << k;
    }
  }
}

TEST_F(KernelIsa, PowerSweep) {
  const power::kernels::PowerSweepArgs args{1.1, 0.9, 0.017, 80.0};
  for (std::size_t n = 1; n <= kMaxLength; ++n) {
    Inputs in(3000 + n);
    // Utilization straddles its [0, 1] clamp; temperatures reach far enough
    // that exp_fast's argument clamps at both ends.
    const auto util = in.column(n, -0.5, 1.5);
    const auto ab = in.column(n, 0.0, 1.2);
    const auto ai = in.column(n, 0.0, 0.3);
    const auto cs = in.column(n, 0.5, 1.5);
    const auto v = in.column(n, 0.8, 1.3);
    const auto f = in.column(n, 1.0, 4.0);
    const auto lm = in.column(n, 0.8, 1.2);
    const auto t = in.column(n, -1e5, 1e5);
    const Isa isas[] = {Isa::kBaseline, Isa::kAvx2};
    for (const bool with_leak : {false, true}) {
      std::array<std::vector<double>, 2> total;
      std::array<std::vector<double>, 2> leak;
      for (int w = 0; w < 2; ++w) {
        total[w].assign(n, 0.0);
        leak[w].assign(n, 0.0);
        power::kernels::power_sweep(
            isas[w], n, args, util.data(), ab.data(), ai.data(), cs.data(),
            v.data(), f.data(), lm.data(), t.data(), total[w].data(),
            with_leak ? leak[w].data() : nullptr);
      }
      EXPECT_EQ(bit_diff(total[0], total[1]), "")
          << "n " << n << " leak " << with_leak;
      EXPECT_EQ(bit_diff(leak[0], leak[1]), "")
          << "n " << n << " leak " << with_leak;
    }
  }
}

TEST_F(KernelIsa, HotspotAccumulate) {
  constexpr double kThreshold = 80.0;  // also one of the special values
  for (std::size_t n = 1; n <= kMaxLength; ++n) {
    Inputs in(4000 + n);
    const auto temps = in.column(n, 60.0, 100.0);
    const auto hot0 = in.column(n, 0.0, 1.0);
    std::array<std::vector<double>, 2> hot{hot0, hot0};
    std::array<bool, 2> any{};
    const Isa isas[] = {Isa::kBaseline, Isa::kAvx2};
    for (int w = 0; w < 2; ++w) {
      any[w] = thermal::kernels::hotspot_accumulate(
          isas[w], n, temps.data(), kThreshold, 1e-4, hot[w].data());
    }
    EXPECT_EQ(any[0], any[1]) << "n " << n;
    EXPECT_EQ(bit_diff(hot[0], hot[1]), "") << "n " << n;
  }
}

}  // namespace
}  // namespace cpm
