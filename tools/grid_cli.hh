/**
 * @file
 * The grid front end shared by thermctl_run, thermctl_client and
 * thermctl_coord: one parser for the benchmarks x policies grid flags,
 * one result printer, and the --fault-plan check.
 *
 * Every grid CLI parses its flags straight into a serve::SweepRequest
 * and expands it with SweepRequest::points(), so a flag value means the
 * same thing on the direct, served and clustered paths, and the three
 * print byte-identical stdout for the same grid.
 */

#ifndef THERMCTL_TOOLS_GRID_CLI_HH
#define THERMCTL_TOOLS_GRID_CLI_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "serve/protocol.hh"

namespace thermctl::cli
{

/** @return the non-empty comma-separated names in `arg`; fatal if none. */
std::vector<std::string> splitList(const std::string &arg);

/** @return the grid before any flag: 186.crafty under policy none. */
serve::SweepRequest defaultGrid();

/**
 * Parse `arg` into `grid` when it is a shared grid flag: --bench,
 * --policy, --warmup, --cycles, --setpoint, --sample, --cores,
 * --coupling, --budget or --budget-policy. `next` fetches the flag's
 * value. Benchmark and policy names must be known ones, --cycles >= 1,
 * and a knob accepts exactly the values the wire carries with their
 * stated meaning: --cores 1..kMaxCores, --sample >= 1, --setpoint != 0,
 * --coupling > 0, --budget >= 0 (0 = no budget coordinator).
 * @return false when `arg` is not a grid flag.
 * @throws FatalError on a malformed or out-of-range value.
 */
bool parseGridFlag(const std::string &arg,
                   const std::function<std::string()> &next,
                   serve::SweepRequest &grid);

/**
 * Prints result blocks to stdout in the thermctl_run layout, separated
 * by blank lines, and appends each as a CSV record when `csv_path` is
 * set (the header is written when the file is new).
 */
class ResultPrinter
{
  public:
    ResultPrinter(std::uint64_t cycles, std::string csv_path);

    void print(const RunResult &r);

  private:
    std::uint64_t cycles_;
    std::string csv_path_;
    bool first_ = true;
};

/**
 * @return the fault plan `spec` names.
 * @throws FatalError in a build without THERMCTL_FAULTS, whose fault
 * points are compiled out, or on a malformed spec.
 */
fault::FaultPlan parseFaultPlan(const std::string &spec);

} // namespace thermctl::cli

#endif // THERMCTL_TOOLS_GRID_CLI_HH
