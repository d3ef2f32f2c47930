#include "core/gpm.h"

#include <numeric>
#include <stdexcept>

#include "util/log.h"
#include "util/trace.h"

namespace cpm::core {

Gpm::Gpm(std::unique_ptr<ProvisioningPolicy> policy, units::Watts budget,
         std::size_t num_islands)
    : policy_(std::move(policy)), budget_(budget) {
  if (!policy_) throw std::invalid_argument("Gpm: null policy");
  if (num_islands == 0) throw std::invalid_argument("Gpm: no islands");
  if (budget_ <= units::Watts{0.0}) {
    throw std::invalid_argument("Gpm: budget must be > 0");
  }
  allocation_.assign(num_islands,
                     budget_.value() / static_cast<double>(num_islands));
}

void Gpm::set_budget(units::Watts budget) {
  if (budget <= units::Watts{0.0}) {
    throw std::invalid_argument("Gpm: budget must be > 0");
  }
  // Rescale the live allocation with the budget: it is the set of setpoints
  // the PICs keep tracking until the next invoke(), so leaving it summing to
  // the old budget would let the chip run over a lowered cap for up to one
  // full global interval.
  if (budget != budget_) {
    const double scale = budget / budget_;
    for (double& a : allocation_) a *= scale;
  }
  budget_ = budget;
}

const std::vector<double>& Gpm::invoke(
    std::span<const IslandObservation> observations) {
  if (observations.size() != allocation_.size()) {
    throw std::invalid_argument("Gpm::invoke: observation count mismatch");
  }
  double observed_w = 0.0;
  for (const IslandObservation& o : observations) observed_w += o.power_w;
  CPM_TRACE_SCOPE2("gpm", "Gpm::invoke", "budget_w", budget_.value(),
                   "observed_w", observed_w);
  std::vector<double> next =
      policy_->provision(budget_, observations, allocation_);
  if (next.size() != allocation_.size()) {
    throw std::logic_error("Gpm: policy returned wrong allocation size");
  }
  // Budget invariant: clamp negatives, rescale if the policy oversubscribed.
  double total = 0.0;
  for (auto& a : next) {
    if (a < 0.0) a = 0.0;
    total += a;
  }
  if (total > budget_.value() * (1.0 + 1e-9)) {
    util::log_debug() << "Gpm: policy oversubscribed (" << total << " W > "
                      << budget_.value() << " W); rescaling";
    const double scale = budget_.value() / total;
    for (auto& a : next) a *= scale;
  }
  allocation_ = std::move(next);
  ++invocations_;
  return allocation_;
}

void Gpm::reset() {
  const std::size_t n = allocation_.size();
  allocation_.assign(n, budget_.value() / static_cast<double>(n));
  invocations_ = 0;
  policy_->reset();
}

}  // namespace cpm::core
