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
 *     --setpoint T       CT setpoint in C (default 111.6)
 *     --sample N         controller sampling interval (default 1000)
 *     --cores N          number of cores (default 1; >1 or a multicore
 *                        policy routes through the multicore engine)
 *     --coupling R       inter-core coupling resistance in K/W
 *     --budget W         chip power budget in W (0 = uncoordinated)
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
 * Multiple benchmarks and policies form a cartesian sweep executed by
 * the parallel SweepEngine; a single point goes through the same engine
 * (and cache) unless --trace-temps forces the direct probe path.
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "multicore/multicore_sim.hh"
#include "sim/policy_factory.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "workload/spec_profiles.hh"

using namespace thermctl;

namespace
{

DtmPolicyKind
parsePolicy(const std::string &name)
{
    DtmPolicyKind kind;
    if (!parseDtmPolicyKind(name, kind)) {
        std::string all;
        for (const auto &n : dtmPolicyNames())
            all += all.empty() ? n : "|" + n;
        fatal("unknown policy '", name, "' (expected one of ", all, ")");
    }
    return kind;
}

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
    // An all-separator argument ("--bench ,") used to decay silently to
    // the built-in default; make it a hard usage error instead.
    if (parts.empty())
        fatal("empty name list '", arg, "'");
    return parts;
}

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
appendCsv(const std::string &csv_path, const RunResult &r,
          std::uint64_t cycles)
{
    const bool fresh = [&] {
        std::ifstream probe(csv_path);
        return !probe.good();
    }();
    std::ofstream csv(csv_path, std::ios::app);
    if (!csv)
        fatal("cannot open ", csv_path);
    if (fresh) {
        csv << "benchmark,policy,cycles,performance,avg_power,"
               "max_temp,emergency_frac,stress_frac\n";
    }
    csv << r.benchmark << ',' << r.policy << ',' << cycles << ','
        << r.ipc << ',' << r.avg_power << ',' << r.max_temperature << ','
        << r.emergency_fraction << ',' << r.stress_fraction << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    SimConfig cfg;
    std::vector<std::string> benches;
    std::vector<std::string> policies;
    std::uint64_t warmup = 300000;
    std::uint64_t cycles = 1000000;
    std::string csv_path;
    std::string temps_path;
    SweepOptions sweep_opts;
    const char *no_cache_env = std::getenv("THERMCTL_NO_CACHE");
    sweep_opts.use_cache = !(no_cache_env && no_cache_env[0] == '1');

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        try {
            if (arg == "--bench") {
                benches = splitList(next());
            } else if (arg == "--trace") {
                cfg.trace_path = next();
            } else if (arg == "--policy") {
                policies = splitList(next());
            } else if (arg == "--warmup") {
                warmup = parseFlag<std::uint64_t>(arg, next());
            } else if (arg == "--cycles") {
                cycles = parseFlag<std::uint64_t>(arg, next());
            } else if (arg == "--setpoint") {
                cfg.policy.ct_setpoint = parseFlag<double>(arg, next());
                cfg.policy.ct_range_low = cfg.policy.ct_setpoint - 0.2;
            } else if (arg == "--sample") {
                cfg.dtm.sample_interval = parseFlag<std::uint64_t>(arg, next());
            } else if (arg == "--cores") {
                const unsigned long v = parseFlag<unsigned long>(arg, next());
                if (v < 1 || v > kMaxCores)
                    fatal("--cores must be in [1, ", kMaxCores, "]");
                cfg.multicore.num_cores =
                    static_cast<std::uint32_t>(v);
            } else if (arg == "--coupling") {
                cfg.multicore.coupling_resistance =
                    parseFlag<double>(arg, next());
            } else if (arg == "--budget") {
                cfg.multicore.chip_budget = parseFlag<double>(arg, next());
            } else if (arg == "--budget-policy") {
                const std::string name = next();
                if (!parseBudgetPolicy(name,
                                       cfg.multicore.budget_policy)) {
                    fatal("unknown budget policy '", name,
                          "' (expected uniform|demand|headroom)");
                }
            } else if (arg == "--jobs") {
                const long v = parseFlag<long>(arg, next());
                if (v < 1)
                    fatal("--jobs must be >= 1");
                sweep_opts.jobs = static_cast<unsigned>(v);
            } else if (arg == "--cache-dir") {
                sweep_opts.cache_dir = next();
            } else if (arg == "--no-cache") {
                sweep_opts.use_cache = false;
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
        multicore::ensureBackendRegistered();
        if (benches.empty())
            benches = {"186.crafty"};
        if (policies.empty())
            policies = {std::string(
                dtmPolicyKindName(DtmPolicyKind::None))};

        const bool direct = !temps_path.empty() || !cfg.trace_path.empty();
        if (direct && (benches.size() > 1 || policies.size() > 1))
            fatal("--trace/--trace-temps take a single benchmark and "
                  "policy");

        RunProtocol proto;
        proto.warmup_cycles = warmup;
        proto.measure_cycles = cycles;

        if (direct) {
            // The probe/trace path needs a live Simulator, so it bypasses
            // the sweep engine (and its cache).
            if (cfg.trace_path.empty())
                cfg.workload = specProfile(benches.front());
            cfg.policy.kind = parsePolicy(policies.front());
            if (needsMulticoreEngine(cfg))
                fatal("--trace/--trace-temps probe the single-core "
                      "Simulator; they do not support multicore "
                      "configs or policies");
            Simulator sim(cfg);

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

            sim.warmUp(warmup);
            sim.run(cycles);

            const auto &dtm = sim.dtm().stats();
            RunResult r;
            r.benchmark = cfg.trace_path.empty() ? cfg.workload.name
                                                 : cfg.trace_path;
            r.policy = dtmPolicyKindName(cfg.policy.kind);
            r.ipc = sim.measuredPerformance();
            r.raw_ipc = sim.measuredIpc();
            r.avg_power = sim.stats().avgPower();
            r.max_temperature = dtm.max_temperature;
            r.emergency_fraction = dtm.emergencyFraction();
            r.stress_fraction = dtm.stressFraction();
            r.mean_duty = dtm.samples
                ? dtm.duty_sum / double(dtm.samples)
                : 1.0;
            printResult(r, cycles);
            if (!csv_path.empty())
                appendCsv(csv_path, r, cycles);
            return 0;
        }

        SweepSpec spec;
        spec.protocol(proto).base(cfg);
        for (const auto &name : benches)
            spec.workload(specProfile(name));
        for (const auto &name : policies) {
            DtmPolicySettings s = cfg.policy;
            s.kind = parsePolicy(name);
            spec.policy(s, name);
        }

        SweepEngine engine(sweep_opts);
        const SweepResults res = engine.run(spec);

        bool first = true;
        for (const auto &oc : res.outcomes()) {
            if (!first)
                std::cout << "\n";
            first = false;
            printResult(oc.result, cycles);
            if (!csv_path.empty())
                appendCsv(csv_path, oc.result, cycles);
        }
        if (res.size() > 1) {
            std::cout << "\nsweep: " << res.size() << " points, "
                      << res.simulated() << " simulated, "
                      << res.cacheHits() << " cached\n";
        }
        return 0;
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
}
