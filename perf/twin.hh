/**
 * @file
 * The traced twin of Simulator::tick.
 *
 * thermctl has no tracing inside the simulator yet, so the per-layer
 * split of a simulated cycle is measured on a copy of the cycle loop
 * assembled from the same public parts Simulator wires together: a Core
 * reading a timing wrapper around the synthetic workload, a
 * MemoryHierarchy the twin owns, PowerModel::cyclePower,
 * SimplifiedRCModel::step and DtmManager::tick. Each part is bracketed by
 * cycle-counter reads and summed per point (count + total time), never
 * recorded per call.
 *
 * The twin covers only what it can reproduce exactly: one core, a
 * synthetic workload, leakage off, and a policy that never scales the
 * clock (none, PID). Its RunResult must be byte-identical to
 * ExperimentRunner::runOne on the same point; thermctl_perf fails the run
 * otherwise. It goes away once spans are recorded inside the program.
 */

#ifndef THERMCTL_PERF_TWIN_HH
#define THERMCTL_PERF_TWIN_HH

#include <cstdint>

#include "sim/experiment.hh"

namespace thermctl::perf
{

/** Per-layer host time and exact model counts of one twin point. */
struct TwinOutcome
{
    RunResult result;

    /** Simulated cycles, warm-up included. */
    std::uint64_t cycles = 0;

    // Host nanoseconds summed over every cycle, per layer.
    double cpu_ns = 0.0;      ///< Core::tick minus workload calls
    double workload_ns = 0.0; ///< InstructionStream next/synthesizeAt
    double power_ns = 0.0;    ///< PowerModel::cyclePower
    double thermal_ns = 0.0;  ///< SimplifiedRCModel::step
    double dtm_ns = 0.0;      ///< DtmManager::tick
    double glue_ns = 0.0;     ///< command plumbing + run statistics
    double wall_ns = 0.0;     ///< the cycle loops themselves
    double cold_ns = 0.0;     ///< the first kColdStartCycles of wall_ns

    std::uint64_t workload_calls = 0;

    // Exact counts over the measurement window.
    double ipc = 0.0;
    double wrong_path_frac = 0.0;
    double squashes_per_kcycle = 0.0;
    double dir_wrong_per_kinst = 0.0;
    double l1i_miss_rate = 0.0;
    double l1d_miss_rate = 0.0;
    double l2_miss_rate = 0.0;

    /** False if the DTM ever commanded a clock change (twin invalid). */
    bool clock_fixed = true;

    double layersNs() const
    {
        return cpu_ns + workload_ns + power_ns + thermal_ns + dtm_ns
            + glue_ns;
    }
};

/** @return true when the twin reproduces `cfg` exactly. */
bool twinSupports(const SimConfig &cfg);

/** Run one point through the twin under the standard protocol. */
TwinOutcome runTwin(const SimConfig &cfg, const RunProtocol &proto);

} // namespace thermctl::perf

#endif // THERMCTL_PERF_TWIN_HH
