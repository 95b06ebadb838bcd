/**
 * @file
 * Ablation (extension): global power-budget split policies.
 *
 * A 4-core chip with a chip-level power budget is coordinated by the
 * BudgetCoordinator once per epoch under each of its three split
 * policies (uniform, demand-proportional, thermal-headroom), across a
 * range of budgets from starved to unconstrained. Cores run
 * decorrelated instances of the same profile, so their instantaneous
 * demand differs even though their long-run averages match.
 *
 * Expected shape: at an unconstrained budget all policies converge to
 * the uncapped result; as the budget tightens, demand-proportional
 * holds more aggregate throughput than uniform (it routes watts to the
 * cores that can spend them), and thermal-headroom trades a little
 * throughput for a lower hottest block.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "workload/spec_profiles.hh"

using namespace thermctl;

int
main(int argc, char **argv)
{
    bench::Session session(
        argc, argv,
        "Ablation: chip power-budget split policy",
        "extension (budget coordinator; DESIGN.md section 15)");

    auto profile = specProfile("186.crafty");
    const double budgets[] = {40.0, 70.0, 120.0};
    const BudgetPolicy policies[] = {BudgetPolicy::Uniform,
                                     BudgetPolicy::DemandProportional,
                                     BudgetPolicy::ThermalHeadroom};

    SweepSpec spec = session.spec();
    spec.workload(profile);
    DtmPolicySettings none;
    none.kind = DtmPolicyKind::None;
    spec.policy(none);
    for (double budget : budgets) {
        for (BudgetPolicy policy : policies) {
            spec.variant(
                std::string(budgetPolicyName(policy)) + "-"
                    + formatDouble(budget, 0) + "W",
                [budget, policy](SimConfig &cfg) {
                    cfg.multicore.num_cores = 4;
                    cfg.multicore.chip_budget = budget;
                    cfg.multicore.budget_policy = policy;
                });
        }
    }
    const SweepResults res = session.run(spec);

    TextTable t;
    t.setHeader({"budget (W)", "split policy", "chip IPC",
                 "avg pwr (W)", "max T (C)", "mean duty"});
    for (double budget : budgets) {
        for (BudgetPolicy policy : policies) {
            const std::string variant =
                std::string(budgetPolicyName(policy)) + "-"
                + formatDouble(budget, 0) + "W";
            const auto &r = res.at(profile.name,
                                   dtmPolicyKindName(none.kind), variant);
            t.addRow({formatDouble(budget, 0), budgetPolicyName(policy),
                      formatDouble(r.ipc, 2),
                      formatDouble(r.avg_power, 1),
                      formatDouble(r.max_temperature, 2),
                      formatDouble(r.mean_duty, 2)});
        }
        t.addRule();
    }
    t.print(std::cout);
    return 0;
}
