/**
 * @file
 * thermctl_run — command-line front end for simulations.
 *
 * Usage:
 *   thermctl_run [options]
 *     --bench NAMES      comma-separated benchmark profiles (default
 *                        186.crafty); any of the 18 SPEC2000-like
 *                        names, with or without the numeric prefix
 *     --trace PATH       replay a recorded micro-op trace instead
 *     --policy NAMES     comma-separated list drawn from none|toggle1|
 *                        toggle2|M|P|PI|PID|throttle|spec-ctrl|
 *                        vf-scaling   (default none)
 *     --warmup N         warm-up cycles (default 300000)
 *     --cycles N         measured cycles (default 1000000)
 *     --setpoint T       CT setpoint in C, nonzero (default 111.6)
 *     --sample N         controller sampling interval, >= 1 (default 1000)
 *     --cores N          number of cores, 1..64 (default 1; >1 or a
 *                        multicore policy routes through the multicore
 *                        engine)
 *     --coupling R       inter-core coupling resistance in K/W, > 0
 *     --budget W         chip power budget in W (default 0 = none)
 *     --budget-policy P  uniform|demand|headroom (default uniform)
 *     --jobs N           sweep worker threads (default THERMCTL_JOBS
 *                        or all cores)
 *     --cache-dir PATH   result cache directory (default
 *                        THERMCTL_CACHE_DIR or ~/.cache/thermctl)
 *     --no-cache         disable the on-disk result cache
 *     --csv PATH         append one CSV record per result
 *     --trace-temps PATH write a temperature time series (CSV;
 *                        single benchmark/policy only, uncached)
 *     --list             list benchmark profiles and exit
 *
 * The grid flags (--bench through --budget-policy) are the ones
 * thermctl_client and thermctl_coord take (tools/grid_cli.hh), and each
 * cell's configuration comes from serve::resolvePoint, the server's
 * mapping, so the three print identical stdout for the same grid.
 * Multiple benchmarks and policies form a cartesian sweep whose resolved
 * cells go straight to the parallel SweepEngine; a single point goes
 * through the same engine (and cache) unless --trace or --trace-temps
 * forces the direct probe path. A sweep's point and cache-hit counts go
 * to stderr.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "grid_cli.hh"
#include "serve/scheduler.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "workload/spec_profiles.hh"

using namespace thermctl;

namespace
{

void
usage()
{
    std::cout <<
        "usage: thermctl_run [--bench NAME[,NAME...] | --trace PATH]\n"
        "                    [--policy none|toggle1|toggle2|M|P|PI|PID|\n"
        "                     throttle|spec-ctrl|vf-scaling|percore-PID|\n"
        "                     adj-integral[,...]]\n"
        "                    [--warmup N] [--cycles N] [--setpoint T]\n"
        "                    [--sample N] [--cores N] [--coupling R]\n"
        "                    [--budget W]\n"
        "                    [--budget-policy uniform|demand|headroom]\n"
        "                    [--jobs N] [--cache-dir PATH]\n"
        "                    [--no-cache] [--csv PATH]\n"
        "                    [--trace-temps PATH] [--list]\n";
}

} // namespace

int
main(int argc, char **argv)
{
    serve::SweepRequest grid = cli::defaultGrid();
    SimConfig base;
    std::string csv_path;
    std::string temps_path;
    SweepOptions sweep_opts = SweepEngine::defaultOptions();

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        try {
            if (cli::parseGridFlag(arg, next, grid)
                || parseSweepFlag(arg, next, sweep_opts)) {
                continue;
            }
            if (arg == "--trace") {
                base.trace_path = next();
            } else if (arg == "--csv") {
                csv_path = next();
            } else if (arg == "--trace-temps") {
                temps_path = next();
            } else if (arg == "--list") {
                for (const auto &name : specProfileNames())
                    std::cout << name << "\n";
                return 0;
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else {
                usage();
                fatal("unknown option ", arg);
            }
        } catch (const FatalError &e) {
            std::cerr << e.what() << "\n";
            return 2;
        }
    }

    try {
        std::vector<SweepPoint> cells;
        for (const serve::PointSpec &cell : grid.points())
            cells.push_back(serve::resolvePoint(cell, base));
        const SweepPoint &first = cells.front();
        cli::ResultPrinter printer(grid.point.measure_cycles, csv_path);

        if (!temps_path.empty() || !base.trace_path.empty()) {
            // The probe/trace path needs a live Simulator, so it bypasses
            // the sweep engine (and its cache).
            if (cells.size() > 1)
                fatal("--trace/--trace-temps take a single benchmark and "
                      "policy");
            if (needsMulticoreEngine(first.config))
                fatal("--trace/--trace-temps probe the single-core "
                      "Simulator; they do not support multicore "
                      "configs or policies");
            Simulator sim(first.config);

            std::ofstream temps_out;
            if (!temps_path.empty()) {
                temps_out.open(temps_path);
                if (!temps_out)
                    fatal("cannot open ", temps_path);
                temps_out << "cycle";
                for (std::size_t i = 0; i < kNumHotspotStructures; ++i)
                    temps_out
                        << ','
                        << structureName(static_cast<StructureId>(i));
                temps_out << "\n";
                sim.setProbe(
                    [&](const Simulator &s, Cycle now) {
                        temps_out << now;
                        for (std::size_t i = 0;
                             i < kNumHotspotStructures; ++i) {
                            temps_out
                                << ','
                                << s.thermal().temperatures().value[i];
                        }
                        temps_out << "\n";
                    },
                    2000);
            }

            sim.warmUp(first.proto.warmup_cycles);
            sim.run(first.proto.measure_cycles);
            RunResult r = collectRunResult(sim);
            if (!base.trace_path.empty())
                r.benchmark = base.trace_path;
            printer.print(r);
            return 0;
        }

        const SweepResults res =
            SweepEngine(sweep_opts).run(std::move(cells));
        for (const auto &oc : res.outcomes())
            printer.print(oc.result);
        if (res.size() > 1) {
            std::cerr << "sweep: " << res.size() << " points, "
                      << res.simulated() << " simulated, "
                      << res.cacheHits() << " cached\n";
        }
        return 0;
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
}
