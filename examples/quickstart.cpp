/**
 * @file
 * Quickstart: simulate one hot SPEC2000-like benchmark on the paper's
 * Alpha-21264-class machine with PID-controlled dynamic thermal
 * management, and print the headline numbers.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart [benchmark]
 */

#include <iostream>

#include "common/logging.hh"
#include "sim/simulator.hh"
#include "workload/spec_profiles.hh"

int
main(int argc, char **argv)
{
    using namespace thermctl;

    const std::string bench = argc > 1 ? argv[1] : "186.crafty";
    const char *usage =
        "usage: quickstart [BENCHMARK]  (a SPEC2000 profile such as "
        "186.crafty; default 186.crafty)\n";
    if (bench == "--help" || bench == "-h") {
        std::cout << usage;
        return 0;
    }
    WorkloadProfile profile;
    try {
        profile = specProfile(bench);
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n" << usage;
        return 2;
    }

    // 1. Configure: the defaults are the paper's machine (Table 2),
    //    power model, floorplan (Table 3) and thresholds.
    SimConfig cfg;
    cfg.workload = profile;
    cfg.policy.kind = DtmPolicyKind::PID;

    // 2. Simulate: warm up past the thermal transient, then measure.
    Simulator sim(cfg);
    sim.warmUp(300000);
    sim.run(1000000);

    // 3. Report.
    const auto &dtm = sim.dtm().stats();
    std::cout << "benchmark            : " << bench << "\n"
              << "policy               : PID (setpoint "
              << cfg.policy.ct_setpoint << " C, emergency "
              << cfg.thermal.t_emergency << " C)\n"
              << "IPC                  : " << sim.measuredIpc() << "\n"
              << "avg chip power       : " << sim.stats().avgPower()
              << " W\n"
              << "hottest structure    : "
              << structureName(sim.thermal().temperatures().hottest())
              << "\n"
              << "max temperature      : " << dtm.max_temperature
              << " C\n"
              << "cycles in emergency  : "
              << dtm.emergencyFraction() * 100.0 << " %\n"
              << "mean fetch duty      : "
              << dtm.duty_sum / static_cast<double>(dtm.samples) << "\n";

    return dtm.emergency_cycles == 0 ? 0 : 1;
}
