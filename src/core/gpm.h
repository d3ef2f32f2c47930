// GPM: the Global Power Manager (paper Sec. II-C). Invoked every T_global; it
// delegates the split of the chip budget to a ProvisioningPolicy, enforces
// the budget invariant, and hands per-island setpoints to the PICs. The GPM
// never touches DVFS knobs itself: the decoupling is the architecture's core
// flexibility claim.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/policy.h"
#include "core/types.h"
#include "util/units.h"

namespace cpm::core {

class Gpm {
 public:
  Gpm(std::unique_ptr<ProvisioningPolicy> policy, units::Watts budget,
      std::size_t num_islands);

  /// One GPM invocation: returns the new per-island power setpoints (watts),
  /// i.e. current_allocation(). The returned allocation always sums to at
  /// most the budget (within floating-point tolerance) -- enforced here even
  /// for buggy policies.
  const std::vector<double>& invoke(
      std::span<const IslandObservation> observations);

  units::Watts budget() const noexcept { return budget_; }
  void set_budget(units::Watts budget);

  const std::vector<double>& current_allocation() const noexcept {
    return allocation_;
  }
  ProvisioningPolicy& policy() noexcept { return *policy_; }

  void reset();

 private:
  std::unique_ptr<ProvisioningPolicy> policy_;
  units::Watts budget_;
  std::vector<double> allocation_;
  std::size_t invocations_ = 0;
};

}  // namespace cpm::core
