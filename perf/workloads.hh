/**
 * @file
 * The benchmark workloads. Each one builds its inputs from the run seed,
 * sets up (several times, reporting the median), runs its timed phase,
 * checks every output it can, and fills a Report. In a traced run it
 * also hands points from its own inputs to the layer pass.
 *
 * Every workload reports the same end-to-end metrics under the same
 * names: op_ms_p50 (the median of its operation, defined per workload)
 * and setup_s. main() adds peak_rss_mb to the per-layer set.
 */

#ifndef THERMCTL_PERF_WORKLOADS_HH
#define THERMCTL_PERF_WORKLOADS_HH

#include <functional>
#include <string>
#include <vector>

#include "layers.hh"
#include "perf_util.hh"
#include "serve/server.hh"

namespace thermctl::perf
{

using WorkloadFn = Report (*)(const RunContext &, Tracer *, LayerInputs &);

struct WorkloadEntry
{
    const char *name;
    WorkloadFn fn;
};

/** Every workload, in the order run.sh runs them. */
const std::vector<WorkloadEntry> &allWorkloads();

Report runSimSingle(const RunContext &ctx, Tracer *tracer, LayerInputs &li);
Report runSimChip16(const RunContext &ctx, Tracer *tracer, LayerInputs &li);
Report runSweepCache(const RunContext &ctx, Tracer *tracer, LayerInputs &li);
Report runServeMixed(const RunContext &ctx, Tracer *tracer, LayerInputs &li);
Report runClusterGrid(const RunContext &ctx, Tracer *tracer,
                      LayerInputs &li);

// ------------------------------------------------- shared helpers

/** Fold the run seed into a profile's workload RNG stream. */
WorkloadProfile seededProfile(const std::string &name, std::uint64_t seed);

/**
 * A seed-derived CT setpoint near the paper's 111.6 C, distinct for
 * every (seed, index): requests built from it never share a digest.
 */
double seededSetpoint(std::uint64_t seed, std::uint64_t index);

/**
 * Run whole rounds until the round boundary nearest to `seconds`
 * (at least one). @return the number of rounds run.
 */
unsigned runRounds(double seconds, const std::function<void(unsigned)> &round);

/**
 * Add op_ms_p50 over `ops_ms`, plus the sample count and the highest
 * percentile the sample supports (ten or more samples beyond it).
 */
void addOpMetrics(Report &rep, const std::vector<double> &ops_ms);

/**
 * Add sim.cold_start_cycle_pct: the share of each simulated point's
 * cycles that falls in its first kColdStartCycles.
 */
void addColdStartShare(const RunProtocol &proto, Report &rep);

/**
 * Stop a server quickly: a drain requested over the wire lets the event
 * loop see the drain at once, where Server's destructor alone waits out
 * drain_flush_ms when no connection is open. No-op on a null server.
 */
void stopServer(std::unique_ptr<serve::Server> &server,
                const std::string &endpoint);

/**
 * Set-up repetitions behind every setup_s median. Each workload's
 * set-up is its time to a first result: bring-up plus one operation.
 */
inline constexpr unsigned kSetupReps = 5;

/**
 * Connections of the serve workloads' open-loop generator (one thread).
 * thermctl_perf refuses to run on fewer usable CPUs.
 */
inline constexpr unsigned kGenConns = 4;

} // namespace thermctl::perf

#endif // THERMCTL_PERF_WORKLOADS_HH
