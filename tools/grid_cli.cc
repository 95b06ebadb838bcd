#include "grid_cli.hh"

#include <fstream>
#include <iostream>

#include "common/flags.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "sim/policy_factory.hh"
#include "workload/spec_profiles.hh"

namespace thermctl::cli
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
    // An all-separator argument ("--bench ,") is a usage error, not the
    // built-in default.
    if (parts.empty())
        fatal("empty name list '", arg, "'");
    return parts;
}

serve::SweepRequest
defaultGrid()
{
    serve::SweepRequest grid;
    grid.benchmarks = {grid.point.benchmark};
    grid.policies = {grid.point.policy};
    return grid;
}

bool
parseGridFlag(const std::string &arg,
              const std::function<std::string()> &next,
              serve::SweepRequest &grid)
{
    serve::PointSpec &p = grid.point;
    if (arg == "--bench") {
        grid.benchmarks = splitList(next());
        for (const std::string &name : grid.benchmarks)
            (void)specProfile(name); // fatal on an unknown name
    } else if (arg == "--policy") {
        grid.policies = splitList(next());
        for (const std::string &name : grid.policies)
            (void)requireDtmPolicyKind(name);
    } else if (arg == "--warmup") {
        p.warmup_cycles = parseFlag<std::uint64_t>(arg, next());
    } else if (arg == "--cycles") {
        p.measure_cycles = parseFlag<std::uint64_t>(arg, next());
        if (p.measure_cycles < 1)
            fatal("--cycles must be >= 1");
    } else if (arg == "--setpoint") {
        p.ct_setpoint = parseFlag<double>(arg, next());
        if (p.ct_setpoint == 0.0)
            fatal("--setpoint must be nonzero");
    } else if (arg == "--sample") {
        p.sample_interval = parseFlag<std::uint64_t>(arg, next());
        if (p.sample_interval < 1)
            fatal("--sample must be >= 1");
    } else if (arg == "--cores") {
        const unsigned long v = parseFlag<unsigned long>(arg, next());
        if (v < 1 || v > kMaxCores)
            fatal("--cores must be in [1, ", kMaxCores, "]");
        p.num_cores = static_cast<std::uint32_t>(v);
    } else if (arg == "--coupling") {
        p.coupling_r = parseFlag<double>(arg, next());
        if (p.coupling_r <= 0.0)
            fatal("--coupling must be > 0 K/W");
    } else if (arg == "--budget") {
        p.chip_budget = parseFlag<double>(arg, next());
        if (p.chip_budget < 0.0)
            fatal("--budget must be >= 0 W");
    } else if (arg == "--budget-policy") {
        const std::string name = next();
        BudgetPolicy policy;
        if (!parseBudgetPolicy(name, policy)) {
            fatal("unknown budget policy '", name,
                  "' (expected uniform|demand|headroom)");
        }
        p.budget_policy = static_cast<std::uint8_t>(policy);
    } else {
        return false;
    }
    return true;
}

namespace
{

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
    const bool fresh = !std::ifstream(csv_path).good();
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

ResultPrinter::ResultPrinter(std::uint64_t cycles, std::string csv_path)
    : cycles_(cycles), csv_path_(std::move(csv_path))
{
}

void
ResultPrinter::print(const RunResult &r)
{
    if (!first_)
        std::cout << "\n";
    first_ = false;
    printResult(r, cycles_);
    if (!csv_path_.empty())
        appendCsv(csv_path_, r, cycles_);
}

fault::FaultPlan
parseFaultPlan(const std::string &spec)
{
#if defined(THERMCTL_FAULTS_ENABLED) && THERMCTL_FAULTS_ENABLED
    return fault::FaultPlan::parse(spec);
#else
    (void)spec;
    fatal("--fault-plan needs a build with THERMCTL_FAULTS=ON "
          "(fault points are compiled out of this binary)");
#endif
}

} // namespace thermctl::cli
