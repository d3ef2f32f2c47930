// ISA differential for the plant tick's kernels: each kernel's wider
// wrappers (AVX2, AVX-512; util/isa.h) must produce the same bits as its
// baseline wrapper on the same inputs, at every length from 1 to 67 (vector
// bodies, remainders and lengths shorter than one vector, for 2, 4 and 8
// lanes), with NaN, infinities, -0.0 and values on each clamp bound mixed
// into the inputs. Every tier the host runs is compared; a tier it does not
// run is named in the test's output, and the test is skipped only when the
// host runs no wide tier at all.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/tick_ledger.h"
#include "power/model.h"
#include "sim/chip.h"
#include "thermal/hotspot.h"
#include "thermal/floorplan.h"
#include "thermal/rc_model.h"
#include "util/isa.h"
#include "util/rng.h"
#include "util/stats.h"
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

/// Compares each wide tier the host runs (util::host_isas()) with the
/// baseline. The tiers it does not run are named on stdout, and a host that
/// runs none skips the test.
class KernelIsa : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string lacking;
    for (const Isa isa :
         std::span(util::kIsas).subspan(util::host_isas().size())) {
      if (!lacking.empty()) lacking += ", ";
      lacking += util::isa_name(isa);
    }
    if (lacking.empty()) return;
    const std::string message =
        "not compared: " + lacking +
        " (this CPU or build does not run those tiers)";
    if (wide().empty()) GTEST_SKIP() << message;
    std::printf("[   NOTE   ] %s\n", message.c_str());
  }

  /// The wide tiers the host runs, narrowest first.
  static std::span<const Isa> wide() { return util::host_isas().subspan(1); }
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

    struct Result {
      std::vector<double> real;
      std::vector<std::uint64_t> word;
      std::array<std::vector<double>, 4> out;
    };
    auto run = [&](Isa isa) {
      Result r{real, word, {}};
      for (auto& column : r.out) column.assign(n, 0.0);
      workload::kernels::demand_sweep(
          isa, n, {r.real.data(), r.word.data(), n},
          {r.out[0].data(), r.out[1].data(), r.out[2].data(),
           r.out[3].data()});
      return r;
    };
    const Result base = run(Isa::kBaseline);
    for (const Isa isa : wide()) {
      const Result r = run(isa);
      EXPECT_EQ(bit_diff(base.real, r.real), "")
          << util::isa_name(isa) << " n " << n;
      EXPECT_EQ(bit_diff(base.word, r.word), "")
          << util::isa_name(isa) << " n " << n;
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(bit_diff(base.out[k], r.out[k]), "")
            << util::isa_name(isa) << " n " << n << " out " << k;
      }
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
    const auto run_frac = in.column(n, 0.0, 1.0);
    const auto cong = in.column(n, 1.0, 2.0);
    auto run = [&](Isa isa) {
      std::array<std::vector<double>, 4> out;
      for (auto& column : out) column.assign(n, 0.0);
      sim::kernels::micro_model_sweep(
          isa, n, cong.data(), 1e5, cpi.data(), mem.data(), dbw.data(),
          invf.data(), run_frac.data(), out[0].data(), out[1].data(),
          out[2].data(), out[3].data());
      return out;
    };
    const auto base = run(Isa::kBaseline);
    for (const Isa isa : wide()) {
      const auto out = run(isa);
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(bit_diff(base[k], out[k]), "")
            << util::isa_name(isa) << " n " << n << " out " << k;
      }
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
    for (const bool with_leak : {false, true}) {
      // {total, leakage}
      auto run = [&](Isa isa) {
        std::array<std::vector<double>, 2> out{std::vector<double>(n, 0.0),
                                               std::vector<double>(n, 0.0)};
        power::kernels::power_sweep(
            isa, n, args, util.data(), ab.data(), ai.data(), cs.data(),
            v.data(), f.data(), lm.data(), t.data(), out[0].data(),
            with_leak ? out[1].data() : nullptr);
        return out;
      };
      const auto base = run(Isa::kBaseline);
      for (const Isa isa : wide()) {
        const auto out = run(isa);
        EXPECT_EQ(bit_diff(base[0], out[0]), "")
            << util::isa_name(isa) << " n " << n << " leak " << with_leak;
        EXPECT_EQ(bit_diff(base[1], out[1]), "")
            << util::isa_name(isa) << " n " << n << " leak " << with_leak;
      }
    }
  }
}

TEST_F(KernelIsa, HotspotAccumulate) {
  for (std::size_t n = 1; n <= kMaxLength; ++n) {
    Inputs in(4000 + n);
    const auto temps = in.column(n, 60.0, 100.0);
    // Per-core thresholds, 80.0 (a special value too) among them.
    const auto threshold = in.column(n, 75.0, 90.0);
    const auto hot0 = in.column(n, 0.0, 1.0);
    auto run = [&](Isa isa) {
      std::pair<bool, std::vector<double>> r{false, hot0};
      r.first = thermal::kernels::hotspot_accumulate(
          isa, n, temps.data(), threshold.data(), 1e-4, r.second.data());
      return r;
    };
    const auto base = run(Isa::kBaseline);
    for (const Isa isa : wide()) {
      const auto [any, hot] = run(isa);
      EXPECT_EQ(base.first, any) << util::isa_name(isa) << " n " << n;
      EXPECT_EQ(bit_diff(base.second, hot), "")
          << util::isa_name(isa) << " n " << n;
    }
  }
}

TEST_F(KernelIsa, LedgerTick) {
  for (std::size_t n = 1; n <= kMaxLength; ++n) {
    Inputs in(8000 + n);
    // n islands and n chips: every sweep sees every length.
    std::array<std::vector<double>, 7> inputs;
    for (auto& column : inputs) column = in.column(n, 0.0, 100.0);
    std::array<std::vector<double>, 14> start;
    for (auto& column : start) column = in.column(n, 0.0, 100.0);
    for (int flags = 0; flags < 8; ++flags) {
      const bool opens = (flags & 1) != 0;
      const bool closes = (flags & 2) != 0;
      const bool opens_window = (flags & 4) != 0;
      auto run = [&](Isa isa) {
        std::array<std::vector<double>, 14> out = start;
        const core::kernels::LedgerTick tick{
            .islands = n,
            .chips = n,
            .dt = 1e-4,
            .opens_interval = opens,
            .closes_interval = closes,
            .opens_window = opens_window,
            .count = 37.0,
            .util = inputs[0].data(),
            .bips = inputs[1].data(),
            .instr = inputs[2].data(),
            .power = inputs[3].data(),
            .pic_util = out[0].data(),
            .pic_bips = out[1].data(),
            .pic_instr = out[2].data(),
            .pic_power = out[3].data(),
            .run_instr = out[4].data(),
            .run_energy = out[5].data(),
            .run_bips = out[6].data(),
            .gpm_util = out[10].data(),
            .gpm_bips = out[11].data(),
            .gpm_instr = out[12].data(),
            .gpm_power = out[13].data(),
            .chip_power = inputs[4].data(),
            .chip_bips = inputs[5].data(),
            .chip_instr = inputs[6].data(),
            .mean_power = out[7].data(),
            .mean_bips = out[8].data(),
            .chip_run_instr = out[9].data(),
        };
        core::kernels::ledger_tick(isa, &tick);
        return out;
      };
      const auto base = run(Isa::kBaseline);
      // The baseline is the scalar arithmetic it replaces: an interval's
      // first tick adds to 0.0, each chip lane is RunningMean's update, and
      // a closing interval joins the window (a fresh one at 0.0).
      for (std::size_t k = 0; k < n; ++k) {
        const double pic = (opens ? 0.0 : start[0][k]) + inputs[0][k];
        EXPECT_EQ(bit_diff(std::vector{pic}, std::vector{base[0][k]}), "");
        EXPECT_EQ(bit_diff(std::vector{util::RunningMean::next(
                               start[7][k], inputs[4][k], 37.0)},
                           std::vector{base[7][k]}),
                  "");
        const double gpm = !closes ? start[10][k]
                                   : (opens_window ? 0.0 : start[10][k]) + pic;
        EXPECT_EQ(bit_diff(std::vector{gpm}, std::vector{base[10][k]}), "");
      }
      for (const Isa isa : wide()) {
        const auto out = run(isa);
        for (std::size_t k = 0; k < out.size(); ++k) {
          EXPECT_EQ(bit_diff(base[k], out[k]), "")
              << util::isa_name(isa) << " n " << n << " out " << k
              << " flags " << flags;
        }
      }
    }
  }
}

TEST_F(KernelIsa, DemandClock) {
  for (std::size_t n = 1; n <= kMaxLength; ++n) {
    Inputs in(5000 + n);
    // Phase lengths include NaN (a row without phases) and clocks that
    // land exactly on their length.
    const auto len = in.column(n, 0.0, 3.0);
    const auto time0 = in.column(n, 0.0, 3.0);
    auto run = [&](Isa isa) {
      std::pair<bool, std::vector<double>> r{false, time0};
      r.first = workload::kernels::demand_clock(
          isa, n, units::Milliseconds{0.1}, r.second.data(), len.data());
      return r;
    };
    const auto base = run(Isa::kBaseline);
    for (const Isa isa : wide()) {
      const auto [rolled, time] = run(isa);
      EXPECT_EQ(base.first, rolled) << util::isa_name(isa) << " n " << n;
      EXPECT_EQ(bit_diff(base.second, time), "")
          << util::isa_name(isa) << " n " << n;
    }
  }
}

TEST_F(KernelIsa, RcStep) {
  for (std::size_t n = 1; n <= kMaxLength; ++n) {
    Inputs in(6000 + n);
    // Any width up to n (n need not be a multiple of it: the kernel reads
    // only the edge flags, which are random here), halo rows included in
    // the random temperatures.
    const std::size_t cols = 1 + (n * 7) % std::min<std::size_t>(n, 9);
    const auto padded = in.column(n + 2 * cols, 20.0, 120.0);
    const auto power = in.column(n, 0.0, 15.0);
    std::vector<double> edge = in.column(4 * n, 0.0, 1.0);
    for (double& e : edge) e = e > 0.5 ? 1.0 : 0.0;
    const thermal::kernels::RcStepArgs args{52.0, 0.8, 2.0, 1e-4, 50.0};
    auto run = [&](Isa isa) {
      std::vector<double> next(n, 0.0);
      thermal::kernels::rc_step(isa, n, cols, args, padded.data() + cols,
                                power.data(), edge.data(), n, next.data());
      return next;
    };
    const auto base = run(Isa::kBaseline);
    for (const Isa isa : wide()) {
      EXPECT_EQ(bit_diff(base, run(isa)), "")
          << util::isa_name(isa) << " n " << n;
    }
  }
}

TEST_F(KernelIsa, RcStepStackedChips) {
  // The stencil over K stacked chip grids, as a ChipPlant batch runs it:
  // the edge flags of thermal::kernels::stacked_edges, the four columns
  // K * n apart. Every tier must match the baseline over the whole stack,
  // and each chip's slice must match that chip stepped alone (its own n
  // cores and edge columns n apart), so no term crosses a chip boundary.
  const thermal::kernels::RcStepArgs args{52.0, 0.8, 2.0, 1e-4, 50.0};
  for (const auto& [rows, cols] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {1, 3}, {2, 2}, {2, 4}, {3, 5}, {8, 8}}) {
    const thermal::Floorplan fp(rows, cols);
    const std::size_t n = fp.num_cores();
    for (const std::size_t chips : {2, 3, 16}) {
      const std::size_t total = chips * n;
      Inputs in(7000 + total + cols);
      const auto padded = in.column(total + 2 * cols, 20.0, 120.0);
      const auto power = in.column(total, 0.0, 15.0);
      const std::vector<double> edge =
          thermal::kernels::stacked_edges(fp, chips);
      auto run = [&](Isa isa) {
        std::vector<double> next(total, 0.0);
        thermal::kernels::rc_step(isa, total, cols, args, padded.data() + cols,
                                  power.data(), edge.data(), total,
                                  next.data());
        return next;
      };
      const auto base = run(Isa::kBaseline);
      for (const Isa isa : wide()) {
        EXPECT_EQ(bit_diff(base, run(isa)), "")
            << util::isa_name(isa) << " " << rows << "x" << cols << " chips "
            << chips;
      }
      const std::vector<double> solo_edge = thermal::kernels::stacked_edges(fp, 1);
      for (std::size_t k = 0; k < chips; ++k) {
        std::vector<double> alone(n, 0.0);
        thermal::kernels::rc_step(Isa::kBaseline, n, cols, args,
                                  padded.data() + cols + k * n,
                                  power.data() + k * n, solo_edge.data(), n,
                                  alone.data());
        const std::vector<double> slice(
            base.begin() + static_cast<std::ptrdiff_t>(k * n),
            base.begin() + static_cast<std::ptrdiff_t>((k + 1) * n));
        EXPECT_EQ(bit_diff(slice, alone), "")
            << rows << "x" << cols << " chips " << chips << " chip " << k;
      }
    }
  }
}

}  // namespace
}  // namespace cpm
