#include "bench_util.hh"

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/flags.hh"
#include "common/logging.hh"
#include "workload/spec_profiles.hh"

namespace thermctl::bench
{

namespace
{

bool
envFlag(const char *name)
{
    const char *v = std::getenv(name);
    return v && v[0] == '1';
}

RunProtocol
makeProtocol()
{
    RunProtocol proto;
    if (envFlag("THERMCTL_FAST")) {
        proto.warmup_cycles = 120000;
        proto.measure_cycles = 300000;
    } else {
        proto.warmup_cycles = 300000;
        proto.measure_cycles = 1000000;
    }
    return proto;
}

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
        "  --quiet         suppress sweep progress on stderr\n"
        "env: THERMCTL_FAST=1 shortens the run protocol for smoke "
        "runs\n",
        prog);
}

struct ParsedArgs
{
    SweepOptions opts;
    bool quiet = false;
};

ParsedArgs
parseArgs(int argc, char **argv)
{
    ParsedArgs parsed;
    parsed.opts.use_cache = !envFlag("THERMCTL_NO_CACHE");
    parsed.quiet = envFlag("THERMCTL_QUIET");

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: missing value for %s\n",
                             argv[0], arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--jobs") {
            unsigned v = 0;
            try {
                v = parseFlag<unsigned>(arg, next());
            } catch (const FatalError &) {
                v = 0; // reported below
            }
            if (v < 1) {
                std::fprintf(stderr, "%s: --jobs must be an integer >= 1\n",
                             argv[0]);
                std::exit(2);
            }
            parsed.opts.jobs = v;
        } else if (arg == "--cache-dir") {
            parsed.opts.cache_dir = next();
        } else if (arg == "--no-cache") {
            parsed.opts.use_cache = false;
        } else if (arg == "--quiet") {
            parsed.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            std::exit(0);
        } else {
            usage(argv[0]);
            std::fprintf(stderr, "%s: unknown option %s\n", argv[0],
                         arg.c_str());
            std::exit(2);
        }
    }
    return parsed;
}

} // namespace

Session::Session(const SweepOptions &opts, bool quiet)
    : proto_(makeProtocol()), engine_(opts), quiet_(quiet)
{
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
}

Session::Session(int argc, char **argv, const std::string &title,
                 const std::string &paper_ref)
    : Session(parseArgs(argc, argv).opts, parseArgs(argc, argv).quiet)
{
    printTitle(title, paper_ref);
}

Session::Session() : Session(parseArgs(0, nullptr).opts, true) {}

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
