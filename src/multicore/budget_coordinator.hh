/**
 * @file
 * Chip-level power-budget coordinator (ControlPULP-style supervisor;
 * DESIGN.md §15).
 *
 * Once per budget epoch the coordinator splits the chip power budget
 * across cores and the engine clamps each core's controller output so
 * its estimated power stays under its share. Three split policies:
 *
 *  - Uniform: budget / N each, workload-oblivious.
 *  - DemandProportional: shares follow each core's recent full-speed
 *    power demand, so busy cores get headroom idle cores don't use.
 *  - ThermalHeadroom: shares follow each core's distance to the
 *    emergency threshold, starving cores that are already hot.
 *
 * Conservation is exact by construction: the last core receives the
 * budget minus the sum handed to the others, so the shares always sum
 * to the chip budget to the last ULP (tests hold this per epoch).
 */

#ifndef THERMCTL_MULTICORE_BUDGET_COORDINATOR_HH
#define THERMCTL_MULTICORE_BUDGET_COORDINATOR_HH

#include <vector>

#include "sim/config.hh"

namespace thermctl::multicore
{

/** Splits the chip budget across cores each epoch. */
class BudgetCoordinator
{
  public:
    /**
     * @param chip_budget total chip budget, Watts (> 0)
     * @param policy split policy
     * @param t_emergency emergency threshold for the headroom policy
     */
    BudgetCoordinator(Watts chip_budget, BudgetPolicy policy,
                      Celsius t_emergency);

    /**
     * Compute per-core budgets for one epoch.
     *
     * @param demand per-core recent full-speed power demand, Watts
     * @param hottest per-core hottest hot-spot temperature
     * @return per-core budgets summing exactly to the chip budget
     */
    std::vector<Watts> split(const std::vector<Watts> &demand,
                             const std::vector<Celsius> &hottest) const;

    BudgetPolicy policy() const { return policy_; }

  private:
    Watts budget_;
    BudgetPolicy policy_;
    Celsius t_emergency_;
};

} // namespace thermctl::multicore

#endif // THERMCTL_MULTICORE_BUDGET_COORDINATOR_HH
