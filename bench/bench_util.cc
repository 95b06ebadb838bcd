#include "bench_util.hh"

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/logging.hh"
#include "workload/spec_profiles.hh"

namespace thermctl::bench
{

namespace
{

void
usage(const char *prog)
{
    std::printf(
        "usage: %s [--jobs N] [--cache-dir PATH] [--no-cache] "
        "[--quiet]\n"
        "  --jobs N        sweep worker threads (default: "
        "THERMCTL_JOBS or all cores)\n"
        "  --cache-dir P   result cache directory (default: "
        "THERMCTL_CACHE_DIR or ~/.cache/thermctl)\n"
        "  --no-cache      disable the on-disk result cache "
        "(THERMCTL_NO_CACHE=1)\n"
        "  --quiet         suppress sweep progress on stderr "
        "(THERMCTL_QUIET=1)\n"
        "env: THERMCTL_FAST=1 shortens the run protocol for smoke "
        "runs\n",
        prog);
}

} // namespace

Session::Session(int argc, char **argv, const std::string &title,
                 const std::string &paper_ref)
{
    const char *fast = std::getenv("THERMCTL_FAST");
    fast_ = fast && fast[0] == '1';
    proto_.warmup_cycles = fast_ ? 120000 : 300000;
    proto_.measure_cycles = fast_ ? 300000 : 1000000;
    const char *quiet = std::getenv("THERMCTL_QUIET");
    quiet_ = quiet && quiet[0] == '1';

    // A bad flag exits 2 with the message every engine binary prints.
    SweepOptions opts = SweepEngine::defaultOptions();
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal("missing value for ", arg);
                return argv[++i];
            };
            if (parseSweepFlag(arg, next, opts))
                continue;
            if (arg == "--quiet") {
                quiet_ = true;
            } else if (arg == "--help" || arg == "-h") {
                usage(argv[0]);
                std::exit(0);
            } else {
                usage(argv[0]);
                fatal("unknown option ", arg);
            }
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
    }
    engine_ = SweepEngine(opts);

    if (!quiet_) {
        engine_.setTelemetry(SweepTelemetry{
            .on_run_start = nullptr,
            .on_run_done =
                [](const SweepOutcome &oc, std::size_t grid_size) {
                    if (oc.cache_hit) {
                        std::fprintf(stderr,
                                     "[%4zu/%zu] %-40s (cached)\n",
                                     oc.point.index + 1, grid_size,
                                     oc.point.key.c_str());
                    } else {
                        std::fprintf(stderr, "[%4zu/%zu] %-40s %.2fs\n",
                                     oc.point.index + 1, grid_size,
                                     oc.point.key.c_str(),
                                     oc.wall_seconds);
                    }
                },
        });
    }
    printTitle(title, paper_ref);
}

SweepSpec
Session::spec() const
{
    SweepSpec s;
    s.protocol(proto_);
    return s;
}

SweepResults
Session::run(const SweepSpec &spec) const
{
    SweepResults results = engine_.run(spec);
    if (!quiet_) {
        std::fprintf(
            stderr,
            "sweep: %zu points in %.2fs (jobs=%u): %zu simulated, "
            "%zu cached\n",
            results.size(), results.wallSeconds(),
            engine_.effectiveJobs(results.size()), results.simulated(),
            results.cacheHits());
    }
    return results;
}

std::vector<RunResult>
Session::characterizeAll() const
{
    DtmPolicySettings none;
    none.kind = DtmPolicyKind::None;
    SweepSpec s = spec();
    s.workloads(allSpecProfiles()).policy(none);
    return run(s).results();
}

RunResult
Session::runOne(const WorkloadProfile &profile,
                const DtmPolicySettings &policy,
                const SimConfig &base) const
{
    SweepSpec s = spec();
    s.base(base).workload(profile).policy(policy);
    return run(s).outcomes().front().result;
}

void
Session::printTitle(const std::string &title,
                    const std::string &paper_ref)
{
    std::cout << "==================================================="
                 "=========================\n"
              << title << "\n"
              << "Reproduces: " << paper_ref << "\n"
              << "(Skadron, Abdelzaher & Stan, HPCA 2002 — see "
                 "EXPERIMENTS.md for the comparison)\n"
              << "==================================================="
                 "=========================\n";
}

} // namespace thermctl::bench
