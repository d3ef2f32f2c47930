#include "core/pic.h"

#include <algorithm>
#include <cmath>

namespace cpm::core {

namespace {

control::PidConfig make_pid_config(const PicConfig& cfg) {
  control::PidConfig pid;
  pid.gains = cfg.gains;
  pid.integral_limit = cfg.integral_limit_pct;
  // No inner output clamp: the gain-schedule scaling in Pic::invoke runs
  // after the PID, so the single +/-max_step_ghz clamp is applied there, on
  // the actual actuation step. Clamping here too would shrink the effective
  // step to max_step * a0/a_i whenever the identified plant gain exceeds the
  // design-nominal one.
  return pid;
}

}  // namespace

Pic::Pic(const PicConfig& config, power::TransducerModel transducer,
         units::GigaHertz initial_freq)
    : config_(config),
      transducer_(transducer),
      pid_(make_pid_config(config)),
      observer_(/*input_gain_b=*/config.plant_gain * config.power_scale_w /
                    100.0,
                config.observer_gain > 0.0 ? config.observer_gain : 1.0),
      freq_request_(units::clamp(initial_freq,
                                 units::GigaHertz{config.min_freq_ghz},
                                 units::GigaHertz{config.max_freq_ghz})) {}

units::GigaHertz Pic::invoke(double measured_utilization, double level_scale) {
  units::Watts sensed = sensed_power(measured_utilization, level_scale);
  if (config_.observer_gain > 0.0) {
    sensed =
        units::Watts{observer_.update(last_delta_.value(), sensed.value())};
  }
  // Error in percentage points of the chip power scale, matching the units
  // the plant gain a_i was identified in (% power per GHz).
  last_error_ = units::Percent{(target_ - sensed).value() /
                               config_.power_scale_w * 100.0};

  const units::GigaHertz min_freq{config_.min_freq_ghz};
  const units::GigaHertz max_freq{config_.max_freq_ghz};

  // Sub-quantum errors: hold the current request. The PID produces no output
  // and accumulates no integral, so neither reacts to noise the actuator
  // cannot correct anyway -- but the error sample is still observed: the
  // derivative must differentiate against the previous interval, not across
  // the whole held gap (which would kick on deadband exit).
  if (units::abs(last_error_) < units::Percent{config_.deadband_pct}) {
    pid_.observe_error(last_error_);
    last_delta_ = units::GigaHertz{0.0};
    return freq_request_;
  }

  // Conditional-integration anti-windup: when the frequency request is
  // pinned at a bound and the error pushes further into it (e.g. the island
  // cannot consume its provisioned power even at fmax), accumulating the
  // integral would delay the response to the next demand swing.
  const bool saturated_high =
      freq_request_ >= max_freq - units::GigaHertz{1e-9} &&
      last_error_ > units::Percent{0.0};
  const bool saturated_low =
      freq_request_ <= min_freq + units::GigaHertz{1e-9} &&
      last_error_ < units::Percent{0.0};

  units::GigaHertz delta =
      pid_.update(last_error_, saturated_high || saturated_low);
  // Gain scheduling: preserve the designed pole locations when the island's
  // identified gain differs from the design-nominal one. The step clamp is
  // applied once, after the scaling, so the full +/-max_step_ghz actuation
  // range stays available for every plant gain.
  if (config_.plant_gain > 1e-9) {
    delta *= config_.nominal_plant_gain / config_.plant_gain;
  }
  delta = units::clamp(delta, units::GigaHertz{-config_.max_step_ghz},
                       units::GigaHertz{config_.max_step_ghz});

  const units::GigaHertz previous = freq_request_;
  freq_request_ = units::clamp(freq_request_ + delta, min_freq, max_freq);
  last_delta_ = freq_request_ - previous;
  return freq_request_;
}

void Pic::reset(units::GigaHertz initial_freq) {
  pid_.reset();
  observer_.reset();
  last_error_ = units::Percent{0.0};
  last_delta_ = units::GigaHertz{0.0};
  freq_request_ =
      units::clamp(initial_freq, units::GigaHertz{config_.min_freq_ghz},
                   units::GigaHertz{config_.max_freq_ghz});
}

}  // namespace cpm::core
