/**
 * @file
 * Experiment runner: executes benchmark x policy grids with the standard
 * warm-up/measure protocol and returns the metrics the paper's tables
 * and figures are built from.
 */

#ifndef THERMCTL_SIM_EXPERIMENT_HH
#define THERMCTL_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace thermctl
{

/** Run-length protocol. */
struct RunProtocol
{
    /** Warm-up cycles before measurement (thermal warm-start inside). */
    std::uint64_t warmup_cycles = 300000;

    /** Measured cycles. */
    std::uint64_t measure_cycles = 1200000;
};

/** Metrics of one benchmark x policy run. */
struct RunResult
{
    std::string benchmark;
    std::string policy;
    ThermalCategory category = ThermalCategory::Medium;

    double ipc = 0.0;

    /**
     * Raw committed-per-cycle IPC, unnormalized for wall time. Equals
     * `ipc` except under frequency scaling (see
     * Simulator::measuredPerformance).
     */
    double raw_ipc = 0.0;

    Watts avg_power = 0.0;
    double emergency_fraction = 0.0; ///< cycles any block > emergency
    double stress_fraction = 0.0;    ///< cycles any block > stress
    Celsius max_temperature = 0.0;
    double mean_duty = 1.0;          ///< DTM actuator mean duty

    /** Per-structure detail (paper Tables 6-8). */
    struct StructureDetail
    {
        Celsius avg_temp = 0.0;
        Celsius max_temp = 0.0;
        double emergency_fraction = 0.0;
        double stress_fraction = 0.0;
        Watts avg_power = 0.0;
    };
    std::array<StructureDetail, kNumStructures> structures{};
};

/**
 * Multicore engine backend hook. The engine layer cannot include
 * src/multicore (it sits above engine in .thermctl-layers), so the
 * multicore subsystem registers its run function here at startup and
 * ExperimentRunner::runOne dispatches multicore configs to it. Entry
 * points that may see multicore configs call
 * multicore::ensureBackendRegistered() explicitly (static initializers
 * in a static archive are dead-stripped).
 */
using MulticoreRunFn = RunResult (*)(const SimConfig &,
                                     const RunProtocol &);

/** Install the multicore backend (idempotent; last writer wins). */
void registerMulticoreBackend(MulticoreRunFn fn);

/**
 * @return true when `cfg` needs the multicore engine: more than one
 * core, or a policy kind only the multicore engine implements.
 */
bool needsMulticoreEngine(const SimConfig &cfg);

/**
 * The metrics of a finished single-core run, named after its config's
 * workload and policy. runOne and the direct probe path of thermctl_run
 * both assemble their RunResult here.
 */
RunResult collectRunResult(const Simulator &sim);

/** Executes runs under a fixed protocol. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(const RunProtocol &protocol = {});

    /**
     * Run one benchmark under one policy from a template configuration
     * (workload and policy fields are overwritten).
     */
    RunResult runOne(const WorkloadProfile &profile,
                     const DtmPolicySettings &policy,
                     const SimConfig &base = {}) const;

    const RunProtocol &protocol() const { return protocol_; }

  private:
    RunProtocol protocol_;
};

/**
 * Classify a no-DTM run into the paper's Table 5 categories from its
 * emergency/stress fractions.
 */
ThermalCategory classifyThermalBehaviour(const RunResult &no_dtm_run);

} // namespace thermctl

#endif // THERMCTL_SIM_EXPERIMENT_HH
