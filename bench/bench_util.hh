/**
 * @file
 * Shared plumbing for the table/figure reproduction binaries.
 *
 * bench::Session is the one object a binary constructs: it parses the
 * engine flags (--jobs, --cache-dir, --no-cache, through the same
 * parseSweepFlag as every tool) plus --quiet, reads THERMCTL_FAST and
 * THERMCTL_QUIET, owns the standard run protocol and a cache-backed
 * SweepEngine with progress telemetry on stderr, and prints the
 * standard experiment header. The shared no-DTM characterization sweep
 * behind Tables 4-8 is one cached grid: the first binary to run it
 * simulates, every later binary (and every later invocation) loads the
 * results from the content-addressed cache.
 */

#ifndef THERMCTL_BENCH_BENCH_UTIL_HH
#define THERMCTL_BENCH_BENCH_UTIL_HH

#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace thermctl::bench
{

/** One bench binary's experiment session. */
class Session
{
  public:
    /**
     * Parse the shared flags from `argv` (exits 0 on --help, and 2 on a
     * bad or unknown flag), then print the standard header naming the
     * experiment.
     */
    Session(int argc, char **argv, const std::string &title,
            const std::string &paper_ref);

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Standard run protocol (honours THERMCTL_FAST=1). */
    const RunProtocol &protocol() const { return proto_; }

    /** @return true under THERMCTL_FAST=1 (the shortened protocol). */
    bool fast() const { return fast_; }

    /** The cache-backed engine executing this session's sweeps. */
    const SweepEngine &engine() const { return engine_; }

    /** @return a fresh spec with the session protocol pre-installed. */
    SweepSpec spec() const;

    /** Execute a sweep with progress telemetry and a summary line. */
    SweepResults run(const SweepSpec &spec) const;

    /**
     * The shared characterization sweep: all 18 benchmarks, no DTM,
     * standard protocol (the grid behind paper Tables 4-8).
     */
    std::vector<RunResult> characterizeAll() const;

    /** Run a single point through the engine (cached like any other). */
    RunResult runOne(const WorkloadProfile &profile,
                     const DtmPolicySettings &policy,
                     const SimConfig &base = {}) const;

    /** Print the standard header naming the experiment. */
    static void printTitle(const std::string &title,
                           const std::string &paper_ref);

  private:
    RunProtocol proto_;
    SweepEngine engine_;
    bool fast_ = false;
    bool quiet_ = false;
};

} // namespace thermctl::bench

#endif // THERMCTL_BENCH_BENCH_UTIL_HH
