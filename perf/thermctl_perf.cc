/**
 * @file
 * thermctl_perf — the benchmark program. perf/run.sh builds and runs it;
 * see perf/README.md for the workloads and the metric glossary.
 *
 * Usage:
 *   thermctl_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                 [--smoke] [--golden FILE] [--out DIR] [--rev REV]
 *   thermctl_perf --list
 *
 * One workload per process. Every line but the last is for people:
 * provenance, each metric as "<kind> <name> <value> <unit>", the golden
 * digest, and any failure. The last line is one JSON object with the
 * keys correct, attempted, failed and metrics — the end-to-end metrics
 * untraced, the per-layer set with --trace 1.
 *
 * Exit codes: 0 every check passed; 1 a check failed (a failed op, a
 * golden-digest mismatch) or the run threw; 2 bad usage or a refused
 * configuration (unpinned build type, fewer usable CPUs than the serve
 * generator's connections).
 */

#include <filesystem>
#include <iostream>
#include <string>

#include "multicore/multicore_sim.hh"
#include "workloads.hh"

using namespace thermctl;
using namespace thermctl::perf;

namespace
{

void
usage()
{
    std::cerr
        << "usage: thermctl_perf --workload NAME [--seed N] [--seconds S]\n"
           "                     [--trace 0|1] [--smoke] [--golden FILE]\n"
           "                     [--out DIR] [--rev REV]\n"
           "       thermctl_perf --list\n";
}

void
printMetrics(const char *kind, const std::vector<Metric> &ms)
{
    for (const Metric &m : ms)
        std::cout << kind << " " << m.name << " " << formatNumber(m.value)
                  << " " << m.unit << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    RunContext ctx;
    std::string golden = "perf/golden.txt";
    std::string rev = "unknown";
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument("missing value for " + arg);
                return argv[++i];
            };
            if (arg == "--workload") {
                ctx.workload = value();
            } else if (arg == "--seed") {
                ctx.seed = std::stoull(value());
            } else if (arg == "--seconds") {
                ctx.seconds = std::stod(value());
            } else if (arg == "--trace") {
                const std::string v = value();
                if (v != "0" && v != "1")
                    throw std::invalid_argument("--trace takes 0 or 1");
                ctx.trace = v == "1";
            } else if (arg == "--smoke") {
                ctx.smoke = true;
            } else if (arg == "--golden") {
                golden = value();
            } else if (arg == "--out") {
                ctx.out_dir = value();
            } else if (arg == "--rev") {
                rev = value();
            } else if (arg == "--list") {
                for (const WorkloadEntry &w : allWorkloads())
                    std::cout << w.name << "\n";
                return 0;
            } else {
                throw std::invalid_argument("unknown option " + arg);
            }
        }
    } catch (const std::exception &e) {
        std::cerr << "thermctl_perf: " << e.what() << "\n";
        usage();
        return 2;
    }

    WorkloadFn fn = nullptr;
    for (const WorkloadEntry &w : allWorkloads()) {
        if (ctx.workload == w.name)
            fn = w.fn;
    }
    if (!fn || ctx.seconds < 0.0) {
        std::cerr << "thermctl_perf: unknown workload '" << ctx.workload
                  << "' (see --list)\n";
        usage();
        return 2;
    }

    // Guard rails: numbers from another build configuration, or from a
    // generator that oversubscribes the CPUs, are not comparable.
    ctx.nproc = usableCpus();
    if (std::string(THERMCTL_PERF_BUILD_TYPE) != "RelWithDebInfo") {
        std::cerr << "thermctl_perf: built as '" THERMCTL_PERF_BUILD_TYPE
                     "', not the pinned RelWithDebInfo\n";
        return 2;
    }
    if (kGenConns > ctx.nproc) {
        std::cerr << "thermctl_perf: the serve generator's " << kGenConns
                  << " connections exceed the " << ctx.nproc
                  << " usable CPUs\n";
        return 2;
    }

    std::cout << "# provenance {\"rev\": \"" << rev
              << "\", \"build_type\": \"" THERMCTL_PERF_BUILD_TYPE
                 "\", \"compiler\": \"" THERMCTL_PERF_COMPILER
                 "\", \"THERMCTL_FAULTS\": \"" THERMCTL_PERF_FAULTS
                 "\", \"THERMCTL_INVARIANTS\": \"" THERMCTL_PERF_INVARIANTS
                 "\", \"nproc\": "
              << ctx.nproc << ", \"workload\": \"" << ctx.workload
              << "\", \"seed\": " << ctx.seed << ", \"seconds\": "
              << formatNumber(ctx.seconds) << ", \"trace\": " << ctx.trace
              << ", \"smoke\": " << ctx.smoke << "}\n";

    Report rep;
    try {
        std::filesystem::create_directories(ctx.out_dir);
        multicore::ensureBackendRegistered();
        Tracer tracer;
        Tracer *tp = ctx.trace ? &tracer : nullptr;
        LayerInputs li;
        rep = fn(ctx, tp, li);
        if (ctx.trace)
            measureLayers(ctx, tp, li, rep);
        // Per layer, not end to end: glibc's dynamic mmap threshold and
        // per-thread arenas make it bimodal by up to 4 MiB in the
        // threaded workloads.
        rep.add(ctx.trace ? rep.layers : rep.extra, "peak_rss_mb",
                peakRssMiB(), "MiB");
        if (ctx.trace) {
            std::vector<Metric> summary = rep.e2e;
            summary.insert(summary.end(), rep.layers.begin(),
                           rep.layers.end());
            summary.insert(summary.end(), rep.extra.begin(),
                           rep.extra.end());
            tracer.write(ctx.out_dir + "/trace-" + ctx.workload + ".json",
                         ctx.workload, summary);
        }
    } catch (const std::exception &e) {
        std::cerr << "thermctl_perf: " << ctx.workload << ": " << e.what()
                  << "\n";
        return 1;
    }

    const char *mode = ctx.smoke ? "smoke" : "full";
    std::uint64_t want = 0;
    if (rep.has_digest) {
        const std::uint64_t got = rep.digest.digest();
        std::cout << "digest " << mode << " " << ctx.workload << " "
                  << ctx.seed << " " << hashHex(got) << "\n";
        if (lookupGolden(golden, mode, ctx.workload, ctx.seed, want)) {
            rep.check(want == got, "golden digest mismatch: expected "
                                       + hashHex(want) + ", got "
                                       + hashHex(got));
        } else {
            std::cout << "# no golden digest for this mode and seed\n";
        }
    }

    printMetrics("e2e", rep.e2e);
    printMetrics("layer", rep.layers);
    printMetrics("extra", rep.extra);
    for (const std::string &f : rep.failures)
        std::cout << "FAILED " << f << "\n";

    const bool correct = rep.failed == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << rep.attempted << ", \"failed\": "
              << rep.failed << ", \"metrics\": ";
    writeMetricsJson(std::cout, ctx.trace ? rep.layers : rep.e2e);
    std::cout << "}" << std::endl;
    return correct ? 0 : 1;
}
