/**
 * @file
 * thermctl_coord — fault-tolerant sweep coordinator across serve nodes.
 *
 * Usage:
 *   thermctl_coord --connect ENDPOINT [--connect ENDPOINT ...] [options]
 *     --connect EP        worker endpoint ("unix:PATH", "tcp:HOST:PORT",
 *                         or a bare socket path); repeat per worker
 *     --bench NAMES       comma-separated benchmark profiles (default
 *                         186.crafty)
 *     --policy NAMES      comma-separated policy names (default none)
 *     --warmup N          warm-up cycles (default 300000)
 *     --cycles N          measured cycles (default 1000000)
 *     --setpoint T        CT setpoint in C, nonzero
 *     --sample N          controller sampling interval, >= 1
 *     --cores N           number of cores, 1..64
 *     --coupling R        inter-core coupling resistance in K/W, > 0
 *     --budget W          chip power budget in W (0 = none)
 *     --budget-policy P   uniform|demand|headroom
 *     --lease-ms N        per-point lease (request deadline + receive
 *                         timeout; default 20000)
 *     --connect-timeout-ms N  bound per connect attempt (default 1000)
 *     --probe-interval-ms N   health probe cadence (default 200)
 *     --quarantine-ms N   quarantine window for failed workers
 *     --unhealthy-after N consecutive failures before demotion
 *     --max-attempts N    dispatch attempts per point (default 8)
 *     --seed N            backoff jitter seed (replayable)
 *     --require-complete  any missing point is a hard failure (exit 2)
 *     --workers-report    print per-worker counters to stderr at the end
 *     --fault-plan SPEC   arm the deterministic fault injector
 *                         (coordinator-side chaos; THERMCTL_FAULTS build)
 *
 * The grid flags (--bench through --budget-policy) parse exactly as in
 * thermctl_run (tools/grid_cli.hh). Result blocks are printed to stdout
 * in grid order (benchmarks outer, policies inner), formatted exactly
 * like thermctl_run, so a merged cluster run can be compared
 * byte-for-byte against the same grid run by thermctl_run. Partial results are never silent: every missing point is
 * listed on stderr as a manifest line, and the exit status says so —
 * 0 all points completed, 3 best-effort run with missing points,
 * 2 hard failure (usage, correctness violation, or --require-complete
 * with missing points).
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/logging.hh"
#include "fault/fault.hh"
#include "grid_cli.hh"
#include "serve/coordinator.hh"

using namespace thermctl;
using namespace thermctl::serve;

namespace
{

void
usage()
{
    std::cout <<
        "usage: thermctl_coord --connect ENDPOINT [--connect ...]\n"
        "                      [--bench NAME[,NAME...]]\n"
        "                      [--policy NAME[,NAME...]]\n"
        "                      [--warmup N] [--cycles N] [--setpoint T]\n"
        "                      [--sample N] [--cores N] [--coupling R]\n"
        "                      [--budget W]\n"
        "                      [--budget-policy uniform|demand|headroom]\n"
        "                      [--lease-ms N] [--connect-timeout-ms N]\n"
        "                      [--probe-interval-ms N] [--quarantine-ms N]\n"
        "                      [--unhealthy-after N] [--max-attempts N]\n"
        "                      [--seed N] [--require-complete]\n"
        "                      [--workers-report] [--fault-plan SPEC]\n";
}

void
printWorkers(const CoordinatorReport &report)
{
    for (const auto &w : report.workers) {
        std::cerr << "worker " << w.endpoint << ": "
                  << workerHealthName(w.health) << ", dispatched "
                  << w.dispatched << ", completed " << w.completed
                  << ", stolen " << w.stolen << ", shadowed "
                  << w.shadowed << ", transport " << w.transport_failures
                  << ", lease-expired " << w.lease_expiries << ", stalls "
                  << w.stalls << ", overloads " << w.overloads
                  << ", quarantines " << w.quarantines << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    CoordinatorOptions opts;
    SweepRequest grid = cli::defaultGrid();
    bool require_complete = false;
    bool workers_report = false;
    std::string fault_plan_spec;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal("missing value for ", arg);
                return argv[++i];
            };
            if (cli::parseGridFlag(arg, next, grid))
                continue;
            if (arg == "--connect") {
                opts.endpoints.push_back(next());
            } else if (arg == "--lease-ms") {
                opts.lease_ms =
                    parseFlag<unsigned>(arg, next());
            } else if (arg == "--connect-timeout-ms") {
                opts.connect_timeout_ms =
                    parseFlag<unsigned>(arg, next());
            } else if (arg == "--probe-interval-ms") {
                opts.probe_interval_ms =
                    parseFlag<unsigned>(arg, next());
            } else if (arg == "--quarantine-ms") {
                opts.quarantine_ms =
                    parseFlag<unsigned>(arg, next());
            } else if (arg == "--unhealthy-after") {
                opts.unhealthy_after =
                    parseFlag<unsigned>(arg, next());
            } else if (arg == "--max-attempts") {
                opts.max_point_attempts =
                    parseFlag<unsigned>(arg, next());
            } else if (arg == "--seed") {
                opts.seed = parseFlag<std::uint64_t>(arg, next());
            } else if (arg == "--require-complete") {
                require_complete = true;
            } else if (arg == "--workers-report") {
                workers_report = true;
            } else if (arg == "--fault-plan") {
                fault_plan_spec = next();
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else {
                usage();
                fatal("unknown option ", arg);
            }
        }

        if (!fault_plan_spec.empty())
            fault::FaultInjector::instance().arm(
                cli::parseFaultPlan(fault_plan_spec));

        Coordinator coordinator(opts);
        const CoordinatorReport report = coordinator.run(grid.points());

        cli::ResultPrinter printer(grid.point.measure_cycles, {});
        for (const auto &o : report.outcomes)
            if (o.reply.error == ServeError::None)
                printer.print(o.reply.result);
        // The missing-point manifest: one stderr line per incomplete
        // point with its typed cause. A partial run is never silent.
        for (const auto &o : report.outcomes) {
            if (o.reply.error == ServeError::None)
                continue;
            std::cerr << "missing: " << o.key << ": "
                      << serveErrorName(o.reply.error)
                      << (o.reply.message.empty()
                              ? ""
                              : ": " + o.reply.message)
                      << " (after " << o.attempts << " attempt(s))\n";
        }
        if (workers_report)
            printWorkers(report);

        if (report.complete())
            return 0;
        const auto missing = report.missingKeys();
        std::cerr << "thermctl_coord: " << missing.size() << " of "
                  << report.outcomes.size() << " point(s) missing\n";
        if (require_complete)
            fatal("--require-complete: incomplete sweep");
        return 3;
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
}
