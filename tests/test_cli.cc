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
#include <string>

#include "common/flags.hh"
#include "common/logging.hh"

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
