/**
 * @file
 * Figure (extension): multicore scaling and inter-core thermal coupling.
 *
 * Sweeps the chip from 1 to 16 cores, with and without lateral coupling
 * between adjacent cores, under the per-core PID policy. Two questions:
 *
 *  1. How does aggregate throughput and the hottest block scale with
 *     the core count when every core runs the same hot workload and
 *     all of them share one heatsink?
 *  2. How much does lateral coupling matter — does a core's thermal
 *     headroom shrink when its neighbours run hot too?
 *
 * Expected shape: throughput scales near-linearly (cores are
 * decorrelated instances of the same profile), the hottest block creeps
 * up with the core count through the shared sink, and enabling coupling
 * nudges interior cores hotter than the isolated variant at the same
 * count.
 *
 * The sweep runs through the cached SweepEngine like every other
 * figure. The simulator's raw stepping rate is a benchmark concern:
 * perf/run.sh --workload sim_chip16 and microbench_components
 * (BM_MulticoreStep) measure it.
 */

#include <iostream>
#include <string>

#include "bench_util.hh"
#include "common/table.hh"
#include "workload/spec_profiles.hh"

using namespace thermctl;

namespace
{

constexpr std::uint32_t kCoreCounts[] = {1, 2, 4, 8, 16};

} // namespace

int
main(int argc, char **argv)
{
    bench::Session session(
        argc, argv, "Figure: multicore scaling and inter-core coupling",
        "extension (multicore thermal RC network; DESIGN.md section 15)");

    auto profile = specProfile("186.crafty");
    SweepSpec spec = session.spec();
    spec.workload(profile);
    DtmPolicySettings pid;
    pid.kind = DtmPolicyKind::PerCorePid;
    spec.policy(pid);
    for (std::uint32_t cores : kCoreCounts) {
        for (bool coupled : {false, true}) {
            // A 1-core chip has no seam; skip the redundant variant.
            if (cores == 1 && coupled)
                continue;
            spec.variant(
                "cores" + std::to_string(cores)
                    + (coupled ? "-coupled" : "-isolated"),
                [cores, coupled](SimConfig &cfg) {
                    cfg.multicore.num_cores = cores;
                    cfg.multicore.coupling_resistance =
                        coupled ? 4.0 : 0.0;
                });
        }
    }
    const SweepResults res = session.run(spec);

    TextTable t;
    t.setHeader({"cores", "coupling", "chip IPC", "avg pwr (W)",
                 "max T (C)", "mean duty"});
    for (std::uint32_t cores : kCoreCounts) {
        for (bool coupled : {false, true}) {
            if (cores == 1 && coupled)
                continue;
            const std::string variant =
                "cores" + std::to_string(cores)
                + (coupled ? "-coupled" : "-isolated");
            const auto &r = res.at(profile.name,
                                   dtmPolicyKindName(pid.kind), variant);
            t.addRow({std::to_string(cores),
                      coupled ? "on" : "off",
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
