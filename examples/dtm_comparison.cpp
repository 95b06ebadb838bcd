/**
 * @file
 * DTM technique shoot-out on one benchmark: run every policy the paper
 * evaluates and print the performance/safety trade-off — the practical
 * decision a thermal architect makes with this library.
 *
 *   ./build/examples/dtm_comparison [benchmark]
 */

#include <iomanip>
#include <iostream>

#include "common/logging.hh"
#include "common/table.hh"
#include "sim/experiment.hh"
#include "workload/spec_profiles.hh"

using namespace thermctl;

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "301.apsi";
    const char *usage =
        "usage: dtm_comparison [BENCHMARK]  (a SPEC2000 profile such as "
        "186.crafty; default 301.apsi)\n";
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

    RunProtocol proto;
    proto.warmup_cycles = 300000;
    proto.measure_cycles = 800000;
    ExperimentRunner runner(proto);

    DtmPolicySettings s;
    s.kind = DtmPolicyKind::None;
    const auto base = runner.runOne(profile, s);

    std::cout << "=== DTM comparison on " << bench << " ("
              << thermalCategoryName(base.category) << " thermal "
              << "behaviour, base IPC " << std::setprecision(3)
              << base.ipc << ") ===\n\n";

    TextTable t;
    t.setHeader({"policy", "IPC", "% of base", "emerg %", "stress %",
                 "max T (C)", "mean duty"});
    t.addRow({"none", formatDouble(base.ipc, 3), "100.0%",
              formatPercent(base.emergency_fraction, 2),
              formatPercent(base.stress_fraction, 1),
              formatDouble(base.max_temperature, 2), "1.00"});
    t.addRule();

    for (DtmPolicyKind kind :
         {DtmPolicyKind::Toggle1, DtmPolicyKind::Toggle2,
          DtmPolicyKind::Manual, DtmPolicyKind::P, DtmPolicyKind::PI,
          DtmPolicyKind::PID}) {
        s.kind = kind;
        const auto r = runner.runOne(profile, s);
        t.addRow({r.policy, formatDouble(r.ipc, 3),
                  formatPercent(r.ipc / base.ipc, 1),
                  formatPercent(r.emergency_fraction, 2),
                  formatPercent(r.stress_fraction, 1),
                  formatDouble(r.max_temperature, 2),
                  formatDouble(r.mean_duty, 2)});
    }
    t.print(std::cout);

    std::cout << "\nReading guide: a good DTM technique shows 0.00% "
                 "emergencies at the highest\npossible % of base IPC. "
                 "The control-theoretic PI/PID, with their trigger "
                 "only\n0.2 C below the emergency threshold, should "
                 "dominate the fixed-response\ntechniques (paper "
                 "Section 7).\n";
    return 0;
}
