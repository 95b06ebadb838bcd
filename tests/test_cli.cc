/**
 * @file
 * Numeric command-line flags: parseFlag() unit behaviour, and the exit
 * code contract of the built tools, benches and examples — a malformed
 * number or name is a usage error (exit 2), never an uncaught exception
 * (SIGABRT), and --help exits 0.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/logging.hh"
#include "grid_cli.hh"

using namespace thermctl;

namespace
{

/** Run a shell command, returning its exit status (-1 on signal). */
int
runCommand(const std::string &cmd)
{
    const int status = std::system(cmd.c_str());
    if (status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Feed one `flag value` pair through the shared grid parser. */
serve::SweepRequest
parseGrid(const std::string &flag, const std::string &value)
{
    serve::SweepRequest grid = cli::defaultGrid();
    bool consumed = false;
    EXPECT_TRUE(cli::parseGridFlag(
        flag, [&] { consumed = true; return value; }, grid))
        << flag;
    EXPECT_TRUE(consumed) << flag;
    return grid;
}

} // namespace

TEST(ParseFlag, AcceptsWholeNumbers)
{
    EXPECT_EQ(parseFlag<std::uint64_t>("--cycles", "1000000"), 1000000u);
    EXPECT_EQ(parseFlag<long>("--jobs", "-3"), -3);
    EXPECT_EQ(parseFlag<unsigned>("--lease-ms", "4294967295"),
              4294967295u);
    EXPECT_DOUBLE_EQ(parseFlag<double>("--setpoint", "111.6"), 111.6);
    EXPECT_DOUBLE_EQ(parseFlag<double>("--budget", "1e2"), 100.0);
}

TEST(ParseFlag, RejectsEverythingElseAsFatal)
{
    EXPECT_THROW((void)parseFlag<double>("--setpoint", ""), FatalError);
    EXPECT_THROW((void)parseFlag<double>("--setpoint", "hot"), FatalError);
    EXPECT_THROW((void)parseFlag<double>("--setpoint", "1.5C"),
                 FatalError);
    EXPECT_THROW((void)parseFlag<double>("--setpoint", "nan"), FatalError);
    EXPECT_THROW((void)parseFlag<double>("--setpoint", "1e999"),
                 FatalError);
    // std::stoull read "1e99" as 1 and "-1" as 2^64 - 1.
    EXPECT_THROW((void)parseFlag<std::uint64_t>("--sample", "1e99"),
                 FatalError);
    EXPECT_THROW((void)parseFlag<std::uint64_t>("--sample", "-1"),
                 FatalError);
    EXPECT_THROW((void)parseFlag<std::uint64_t>("--sample", " 7"),
                 FatalError);
    EXPECT_THROW((void)parseFlag<unsigned>("--lease-ms", "4294967296"),
                 FatalError);
    EXPECT_THROW((void)parseFlag<unsigned long>("--cores", "x"),
                 FatalError);

    try {
        (void)parseFlag<double>("--setpoint", "");
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("--setpoint"),
                  std::string::npos);
    }
}

TEST(CliExitCodes, MalformedNumericFlagsExitTwo)
{
    for (const char *bin :
         {THERMCTL_RUN_BIN, THERMCTL_CLIENT_BIN, THERMCTL_COORD_BIN}) {
        for (const char *flags :
             {"--setpoint ''", "--cores x", "--sample 1e99"}) {
            EXPECT_EQ(runCommand(std::string(bin) + " " + flags
                                 + " >/dev/null 2>&1"),
                      2)
                << bin << " " << flags;
        }
    }
}

TEST(CliExitCodes, MulticoreZeroSampleIntervalExitsTwo)
{
    EXPECT_EQ(runCommand(std::string(THERMCTL_RUN_BIN)
                         + " --cores 2 --sample 0 --warmup 0 --cycles 1000"
                           " --no-cache >/dev/null 2>&1"),
              2);
}

TEST(CliExitCodes, MalformedTcpPortExitsTwo)
{
    // "80x" used to be read as port 80 and dialed.
    EXPECT_EQ(runCommand(std::string(THERMCTL_CLIENT_BIN)
                         + " --socket tcp:127.0.0.1:80x --stats"
                           " >/dev/null 2>&1"),
              2);
}

TEST(CliExitCodes, BenchJobsMustBeAWholeNumber)
{
    // strtol used to read "4x" as 4.
    for (const char *jobs : {"4x", "0", "-1", ""}) {
        EXPECT_EQ(runCommand(std::string(THERMCTL_BENCH_BIN) + " --jobs '"
                             + jobs + "' >/dev/null 2>&1"),
                  2)
            << "--jobs '" << jobs << "'";
    }
}

TEST(CliExitCodes, EngineFlagsFailAlikeEverywhere)
{
    // One parser (parseSweepFlag) reads the engine flags of every
    // binary that runs a SweepEngine, so a bad one fails the same way.
    char tmpl[] = "/tmp/thermctl_cli_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::filesystem::path dir = tmpl;
    const std::string err = (dir / "stderr").string();
    struct Case
    {
        const char *flags;
        const char *named; ///< the flag the message must name
    };
    for (const Case &c : {Case{"--jobs 0", "--jobs"},
                          Case{"--jobs 4x", "--jobs"},
                          Case{"--cache-dir", "--cache-dir"}}) {
        std::string first;
        for (const char *bin :
             {THERMCTL_RUN_BIN, THERMCTL_SERVE_BIN, THERMCTL_BENCH_BIN}) {
            EXPECT_EQ(runCommand(std::string(bin) + " " + c.flags
                                 + " >/dev/null 2>" + err),
                      2)
                << bin << " " << c.flags;
            const std::string msg = readFile(err);
            if (first.empty()) {
                first = msg;
                EXPECT_NE(first.find(c.named), std::string::npos)
                    << bin << " " << c.flags << ": " << first;
            } else {
                EXPECT_EQ(msg, first) << bin << " " << c.flags;
            }
        }
    }

    // loadgen's point flags go through the grid parser: --cores 0 is a
    // usage error before any dial.
    EXPECT_EQ(runCommand(std::string(THERMCTL_LOADGEN_BIN)
                         + " --cores 0 --socket /nonexistent >/dev/null 2>"
                         + err),
              2);
    EXPECT_NE(readFile(err).find("--cores"), std::string::npos)
        << readFile(err);
    std::filesystem::remove_all(dir);
}

TEST(CliExitCodes, ExamplesPrintUsageInsteadOfAborting)
{
    for (const char *bin :
         {THERMCTL_QUICKSTART_BIN, THERMCTL_HOTSPOT_EXPLORER_BIN,
          THERMCTL_DTM_COMPARISON_BIN}) {
        EXPECT_EQ(runCommand(std::string(bin) + " --help >/dev/null 2>&1"),
                  0)
            << bin;
        EXPECT_EQ(runCommand(std::string(bin)
                             + " no.such.profile >/dev/null 2>&1"),
                  2)
            << bin;
    }
}

TEST(CliExitCodes, ZeroCouplingExitsTwo)
{
    // thermctl_run used to read --coupling 0 as "decoupled cores" while
    // the served path read it as the server default.
    EXPECT_EQ(runCommand(std::string(THERMCTL_RUN_BIN)
                         + " --cores 2 --coupling 0 --warmup 0"
                           " --cycles 1000 --no-cache >/dev/null 2>&1"),
              2);
}

TEST(GridFlags, AcceptExactlyTheValuesTheWireCarries)
{
    struct Case
    {
        const char *flag;
        const char *value;
        bool accepted;
    };
    const Case cases[] = {
        {"--cores", "1", true},         {"--cores", "64", true},
        {"--cores", "0", false},        {"--cores", "65", false},
        {"--sample", "1", true},        {"--sample", "0", false},
        {"--setpoint", "111.4", true},  {"--setpoint", "-5", true},
        {"--setpoint", "0", false},     {"--setpoint", "-0", false},
        {"--coupling", "4", true},      {"--coupling", "0.25", true},
        {"--coupling", "0", false},     {"--coupling", "-1", false},
        {"--budget", "0", true},        {"--budget", "70", true},
        {"--budget", "-1", false},      {"--budget-policy", "demand", true},
        {"--budget-policy", "greedy", false},
        {"--bench", "gcc,179.art", true}, {"--bench", ",", false},
        {"--policy", "none,PI", true},  {"--policy", ",,", false},
        {"--warmup", "0", true},        {"--cycles", "-1", false},
    };
    for (const Case &c : cases) {
        if (c.accepted)
            EXPECT_NO_THROW((void)parseGrid(c.flag, c.value))
                << c.flag << " " << c.value;
        else
            EXPECT_THROW((void)parseGrid(c.flag, c.value), FatalError)
                << c.flag << " " << c.value;
    }

    // Accepted values land in the one PointSpec every cell copies.
    EXPECT_EQ(parseGrid("--cores", "4").point.num_cores, 4u);
    EXPECT_EQ(parseGrid("--coupling", "4").point.coupling_r, 4.0);
    EXPECT_EQ(parseGrid("--budget-policy", "demand").point.budget_policy,
              1u);
    EXPECT_EQ(parseGrid("--bench", "gcc,179.art").benchmarks,
              (std::vector<std::string>{"gcc", "179.art"}));

    // Tool-specific flags are left to the tool.
    serve::SweepRequest grid = cli::defaultGrid();
    EXPECT_FALSE(cli::parseGridFlag(
        "--jobs", [] { return std::string("2"); }, grid));
}

TEST(CliOutput, TraceTempsProbeMatchesTheSweepPath)
{
    // The --trace-temps probe path and the sweep engine assemble their
    // RunResult in one place, so their stdout is identical.
    char tmpl[] = "/tmp/thermctl_cli_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::filesystem::path dir = tmpl;
    const std::string flags = " --bench 186.crafty --policy PI"
                              " --warmup 2000 --cycles 30000";
    ASSERT_EQ(runCommand(std::string(THERMCTL_RUN_BIN) + flags
                         + " --trace-temps " + (dir / "temps.csv").string()
                         + " >" + (dir / "probe.out").string()),
              0);
    ASSERT_EQ(runCommand(std::string(THERMCTL_RUN_BIN) + flags
                         + " --no-cache >" + (dir / "sweep.out").string()),
              0);
    const std::string probe = readFile(dir / "probe.out");
    EXPECT_FALSE(probe.empty());
    EXPECT_EQ(probe, readFile(dir / "sweep.out"));
    EXPECT_FALSE(readFile(dir / "temps.csv").empty());
    std::filesystem::remove_all(dir);
}
