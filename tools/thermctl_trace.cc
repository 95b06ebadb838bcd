/**
 * @file
 * thermctl_trace — capture and inspect micro-op traces.
 *
 * Usage:
 *   thermctl_trace record --bench NAME --ops N --out PATH
 *       Capture N committed-path micro-ops of a benchmark profile into
 *       an EIO-style binary trace (replayable with thermctl_run
 *       --trace PATH or SimConfig::trace_path).
 *
 *   thermctl_trace info --in PATH [--dump N]
 *       Print summary statistics of a trace (instruction mix, branch
 *       and memory behaviour) and optionally the first N ops.
 */

#include <array>
#include <iostream>
#include <string>

#include "common/flags.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "workload/spec_profiles.hh"
#include "workload/synthetic.hh"
#include "workload/trace.hh"

using namespace thermctl;

namespace
{

int
record(const std::string &bench, std::uint64_t ops,
       const std::string &out)
{
    SyntheticWorkload wl(specProfile(bench));
    TraceWriter writer(out);
    for (std::uint64_t i = 0; i < ops; ++i)
        writer.append(wl.next());
    writer.close();
    std::cout << "wrote " << writer.count() << " micro-ops of " << bench
              << " to " << out << "\n";
    return 0;
}

int
info(const std::string &in, std::uint64_t dump)
{
    TraceReader reader(in);
    std::array<std::uint64_t,
               static_cast<std::size_t>(OpClass::NumOpClasses)>
        counts{};
    std::uint64_t branches = 0, taken = 0, calls = 0, returns = 0;
    std::uint64_t mem_ops = 0;
    Addr min_addr = ~Addr{0}, max_addr = 0;

    TraceReader dumper(in);
    for (std::uint64_t i = 0; i < dump && !dumper.done(); ++i)
        std::cout << dumper.next().toString() << "\n";

    const std::uint64_t total = reader.count();
    while (!reader.done()) {
        const MicroOp op = reader.next();
        ++counts[static_cast<std::size_t>(op.op)];
        if (op.is_branch) {
            ++branches;
            taken += op.taken;
            calls += op.is_call;
            returns += op.is_return;
        }
        if (isMemOp(op.op)) {
            ++mem_ops;
            min_addr = std::min(min_addr, op.mem_addr);
            max_addr = std::max(max_addr, op.mem_addr);
        }
    }

    std::cout << "trace         : " << in << "\n"
              << "micro-ops     : " << total << "\n";
    TextTable t;
    t.setHeader({"class", "count", "fraction"});
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(OpClass::NumOpClasses); ++c) {
        if (counts[c] == 0)
            continue;
        t.addRow({opClassName(static_cast<OpClass>(c)),
                  std::to_string(counts[c]),
                  formatPercent(double(counts[c]) / double(total), 1)});
    }
    t.print(std::cout);
    if (branches) {
        std::cout << "branches      : " << branches << " ("
                  << formatPercent(double(taken) / branches, 1)
                  << " taken, " << calls << " calls, " << returns
                  << " returns)\n";
    }
    if (mem_ops) {
        std::cout << "memory ops    : " << mem_ops << " (addresses 0x"
                  << std::hex << min_addr << " .. 0x" << max_addr
                  << std::dec << ")\n";
    }
    return 0;
}

void
usage()
{
    std::cout
        << "usage: thermctl_trace record --bench NAME --ops N --out P\n"
        << "       thermctl_trace info --in PATH [--dump N]\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string mode = argv[1];
    std::string bench = "186.crafty";
    std::string out = "trace.bin";
    std::string in;
    std::uint64_t ops = 1000000;
    std::uint64_t dump = 0;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        try {
            if (arg == "--bench")
                bench = next();
            else if (arg == "--ops")
                ops = parseFlag<std::uint64_t>(arg, next());
            else if (arg == "--out")
                out = next();
            else if (arg == "--in")
                in = next();
            else if (arg == "--dump")
                dump = parseFlag<std::uint64_t>(arg, next());
            else {
                usage();
                return 2;
            }
        } catch (const FatalError &e) {
            std::cerr << e.what() << "\n";
            return 2;
        }
    }

    try {
        if (mode == "record")
            return record(bench, ops, out);
        if (mode == "info") {
            if (in.empty())
                fatal("info mode needs --in PATH");
            return info(in, dump);
        }
        usage();
        return 2;
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
}
