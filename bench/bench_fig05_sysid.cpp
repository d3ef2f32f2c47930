// Fig. 5: actual power consumption vs. the open-loop model prediction
//   P(t+1) = P(t) + a_i * d(t)        (paper Eq. 8)
// Methodology (paper Sec. II-D): run bodytrack on all islands, modulate the
// DVFS levels with white noise, least-squares fit a_i, then compare the
// model's one-step-ahead prediction with the measured power. The paper
// reports an average error well within 10 %.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "control/system_id.h"
#include "core/simulation.h"
#include "power/model.h"
#include "util/rng.h"
#include "util/stats.h"

int main() {
  using namespace cpm;
  bench::header("Fig. 5", "actual power vs. Eq. 8 model prediction (bodytrack)");

  // bodytrack on every core of the default 8-core chip.
  sim::CmpConfig cfg = sim::CmpConfig::default_8core();
  workload::Mix mix;
  mix.name = "bodytrack-everywhere";
  for (std::size_t i = 0; i < 4; ++i) {
    mix.islands.push_back({&workload::find_profile("btrack"),
                           &workload::find_profile("btrack")});
  }
  core::SimulationConfig plant_cfg;
  plant_cfg.cmp = cfg;
  plant_cfg.mix = mix;
  plant_cfg.seed = 42;
  const power::PowerModel power_model(cfg);
  core::ChipPlant plant(plant_cfg, power_model);
  sim::Chip& chip = plant.chip();
  util::Xoshiro256pp rng(7);

  const double dt = cfg.tick_seconds();
  const std::size_t intervals = 400;
  std::vector<double> chip_power, freq0;
  std::vector<std::vector<double>> island_w(4), island_freq(4);

  for (std::size_t k = 0; k < intervals; ++k) {
    double interval_power = 0.0;
    std::vector<double> ip(4, 0.0);
    for (std::size_t t = 0; t < cfg.ticks_per_pic_interval; ++t) {
      plant.step(dt);
      for (std::size_t i = 0; i < 4; ++i) ip[i] += plant.island_power_w()[i];
    }
    const double ticks = static_cast<double>(cfg.ticks_per_pic_interval);
    for (std::size_t i = 0; i < 4; ++i) {
      island_w[i].push_back(ip[i] / ticks);
      island_freq[i].push_back(chip.actuator(i).operating_point().freq_ghz);
      interval_power += ip[i] / ticks;
      // White-noise DVFS excitation.
      chip.actuator(i).set_level(rng.uniform_int(8));
    }
    chip_power.push_back(interval_power);
    freq0.push_back(island_freq[0].back());
  }

  // Fit a_i per island on the first half, validate on the second half.
  // The estimator identifies gains in % of max chip power per GHz (the
  // paper's Fig. 5 units), so normalize the watt deltas before the fit and
  // convert back for the watt-domain prediction below.
  const units::Watts p_max = power_model.max_chip_power(mix);
  const std::size_t half = intervals / 2;
  std::vector<double> gains(4);
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<double> df, dp;
    for (std::size_t k = 1; k < half; ++k) {
      df.push_back(island_freq[i][k] - island_freq[i][k - 1]);
      dp.push_back((island_w[i][k] - island_w[i][k - 1]) /
                   p_max.value() * 100.0);
    }
    const control::GainEstimate est = control::estimate_plant_gain(df, dp);
    const units::WattsPerGhz abs = units::absolute_gain(est.gain, p_max);
    gains[i] = abs.value();
    std::printf("  island %zu: a_i = %.3f %%/GHz = %.3f W/GHz (R^2 = %.3f)\n",
                i + 1, est.gain.value(), abs.value(), est.r_squared);
  }

  // One-step-ahead prediction on the held-out half.
  std::vector<double> actual, predicted;
  for (std::size_t k = half; k + 1 < intervals; ++k) {
    double pred = 0.0, act = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
      pred += island_w[i][k] +
              gains[i] * (island_freq[i][k + 1] - island_freq[i][k]);
      act += island_w[i][k + 1];
    }
    predicted.push_back(pred);
    actual.push_back(act);
  }
  const double err = util::mean_abs_pct_error(predicted, actual);
  std::printf("\n  mean |model - actual| / actual = %.2f %%  (paper: < 10 %%)\n",
              err * 100.0);

  bench::note("sample series (W), first 16 validation intervals:");
  bench::series("actual",
                std::vector<double>(actual.begin(), actual.begin() + 16), 1);
  bench::series("model",
                std::vector<double>(predicted.begin(), predicted.begin() + 16),
                1);
  return err < 0.10 ? 0 : 1;
}
