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
 *     --setpoint T        CT setpoint in C (0 = server default)
 *     --sample N          controller sampling interval (0 = default)
 *     --cores N           number of cores (0 = server default)
 *     --coupling R        inter-core coupling resistance in K/W
 *     --budget W          chip power budget in W (0 = server default)
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
 * Result blocks are printed to stdout in grid order (benchmarks outer,
 * policies inner), formatted exactly like thermctl_run, so a merged
 * cluster run can be compared byte-for-byte against a single-process
 * reference. Partial results are never silent: every missing point is
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
#include "common/table.hh"
#include "fault/fault.hh"
#include "serve/coordinator.hh"
#include "sim/policy_factory.hh"
#include "sim/sweep.hh"

using namespace thermctl;
using namespace thermctl::serve;

namespace
{

std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= arg.size()) {
        const std::size_t comma = arg.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? arg.size() : comma;
        if (end > start)
            parts.push_back(arg.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (parts.empty())
        fatal("empty name list '", arg, "'");
    return parts;
}

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

/** Identical layout to thermctl_run's printResult (bit-compare safe). */
void
printResult(const RunResult &r, std::uint64_t cycles)
{
    std::cout << "benchmark     : " << r.benchmark << "\n"
              << "policy        : " << r.policy << "\n"
              << "cycles        : " << cycles << "\n"
              << "performance   : " << r.ipc << " (IPC " << r.raw_ipc
              << ")\n"
              << "avg power     : " << r.avg_power << " W\n"
              << "max temp      : " << r.max_temperature << " C\n"
              << "emergency     : "
              << formatPercent(r.emergency_fraction, 3) << "\n"
              << "stress        : " << formatPercent(r.stress_fraction, 1)
              << "\n"
              << "mean duty     : " << r.mean_duty << "\n";
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
    std::vector<std::string> benches;
    std::vector<std::string> policies;
    PointSpec knobs;
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
            if (arg == "--connect") {
                opts.endpoints.push_back(next());
            } else if (arg == "--bench") {
                benches = splitList(next());
            } else if (arg == "--policy") {
                policies = splitList(next());
            } else if (arg == "--warmup") {
                knobs.warmup_cycles = parseFlag<std::uint64_t>(arg, next());
            } else if (arg == "--cycles") {
                knobs.measure_cycles = parseFlag<std::uint64_t>(arg, next());
            } else if (arg == "--setpoint") {
                knobs.ct_setpoint = parseFlag<double>(arg, next());
            } else if (arg == "--sample") {
                knobs.sample_interval = parseFlag<std::uint64_t>(arg, next());
            } else if (arg == "--cores") {
                const unsigned long v = parseFlag<unsigned long>(arg, next());
                if (v > kMaxCores)
                    fatal("--cores must be <= ", kMaxCores);
                knobs.num_cores = static_cast<std::uint32_t>(v);
            } else if (arg == "--coupling") {
                knobs.coupling_r = parseFlag<double>(arg, next());
            } else if (arg == "--budget") {
                knobs.chip_budget = parseFlag<double>(arg, next());
            } else if (arg == "--budget-policy") {
                const std::string name = next();
                BudgetPolicy policy;
                if (!parseBudgetPolicy(name, policy)) {
                    fatal("unknown budget policy '", name,
                          "' (expected uniform|demand|headroom)");
                }
                knobs.budget_policy = static_cast<std::uint8_t>(policy);
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

        if (benches.empty())
            benches = {"186.crafty"};
        if (policies.empty())
            policies = {"none"};

        if (!fault_plan_spec.empty()) {
#if defined(THERMCTL_FAULTS_ENABLED) && THERMCTL_FAULTS_ENABLED
            fault::FaultInjector::instance().arm(
                fault::FaultPlan::parse(fault_plan_spec));
#else
            fatal("--fault-plan needs a build with THERMCTL_FAULTS=ON "
                  "(fault points are compiled out of this binary)");
#endif
        }

        SweepRequest grid;
        grid.benchmarks = benches;
        grid.policies = policies;
        grid.warmup_cycles = knobs.warmup_cycles;
        grid.measure_cycles = knobs.measure_cycles;
        grid.ct_setpoint = knobs.ct_setpoint;
        grid.sample_interval = knobs.sample_interval;
        grid.num_cores = knobs.num_cores;
        grid.coupling_r = knobs.coupling_r;
        grid.chip_budget = knobs.chip_budget;
        grid.budget_policy = knobs.budget_policy;

        Coordinator coordinator(opts);
        const CoordinatorReport report =
            coordinator.run(Coordinator::gridPoints(grid));

        bool first = true;
        for (const auto &o : report.outcomes) {
            if (o.reply.error != ServeError::None)
                continue;
            if (!first)
                std::cout << "\n";
            first = false;
            printResult(o.reply.result, knobs.measure_cycles);
        }
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
