/**
 * @file
 * The composed simulator: synthetic workload -> out-of-order core ->
 * per-structure power -> per-block thermal RC -> DTM -> fetch gating,
 * advanced cycle by cycle exactly as in the paper's methodology
 * ("temperature is computed on a cycle-by-cycle basis").
 */

#ifndef THERMCTL_SIM_SIMULATOR_HH
#define THERMCTL_SIM_SIMULATOR_HH

#include <functional>
#include <limits>
#include <memory>

#include "cpu/core.hh"
#include "dtm/manager.hh"
#include "power/model.hh"
#include "sim/config.hh"
#include "sim/policy_factory.hh"
#include "thermal/rc_model.hh"
#include "workload/synthetic.hh"
#include "workload/trace.hh"

namespace thermctl
{

/** Per-structure measurement aggregates for one run. */
struct StructureRunStats
{
    double temp_sum = 0.0;
    Celsius temp_max = std::numeric_limits<double>::lowest();
    std::uint64_t emergency_cycles = 0;
    std::uint64_t stress_cycles = 0;
};

/** Whole-run measurement aggregates. */
struct SimulatorStats
{
    std::uint64_t cycles = 0;
    PowerVector power_sum;
    std::array<StructureRunStats, kNumStructures> structures{};

    /** @return average chip-wide power over the window, Watts. */
    Watts
    avgPower() const
    {
        return cycles ? power_sum.total() / static_cast<double>(cycles)
                      : 0.0;
    }

    /** @return average power of one structure, Watts. */
    Watts
    avgStructurePower(StructureId id) const
    {
        return cycles ? power_sum[id] / static_cast<double>(cycles)
                      : 0.0;
    }

    /** @return time-average temperature of one structure. */
    Celsius
    avgTemperature(StructureId id) const
    {
        const auto &s = structures[static_cast<std::size_t>(id)];
        return cycles ? s.temp_sum / static_cast<double>(cycles) : 0.0;
    }
};

/**
 * Build one core's instruction source: the recorded trace when
 * cfg.trace_path is set, else the synthetic generator. The generator's
 * seed is offset by `core_index` so the cores of a multicore chip run
 * decorrelated instances of the same profile (identical seeds would
 * phase-lock every core's activity); core 0 runs cfg.workload as is.
 */
std::unique_ptr<InstructionStream>
makeInstructionStream(const SimConfig &cfg, std::size_t core_index = 0);

/** One fully wired simulation instance. */
class Simulator
{
  public:
    explicit Simulator(const SimConfig &cfg);
    ~Simulator();

    /** Advance one cycle, every layer inline on the calling thread. */
    void tick();

    /**
     * Advance n cycles, bit-identically to n tick() calls, as a
     * two-stage pipeline on the parallelFor pool (DESIGN.md §2.2,
     * "Cycle pipeline"): the core on the calling thread, micro-op generation
     * ahead of it and the power/thermal/DTM model behind it on a free
     * pool helper, or on the calling thread when none is free. A probe
     * runs on the calling thread. After run() throws, the simulator's
     * state is unspecified.
     */
    void run(std::uint64_t n);

    /**
     * The standard warm-up protocol: run half the span cold, jump the
     * thermal state to the steady state implied by the measured average
     * power, run the second half to settle, then clear every statistic
     * so a measurement window can begin.
     */
    void warmUp(std::uint64_t cycles);

    /** Clear all measurement statistics (not the machine state). */
    void resetMeasurement();

    /** Per-cycle probe invoked every `interval` cycles (0 disables). */
    using Probe = std::function<void(const Simulator &, Cycle)>;
    void setProbe(Probe probe, Cycle interval);

    /**
     * Replace the DTM policy with a custom instance (rebuilds the DTM
     * manager under the current configuration). Used by ablations that
     * need controller variants the factory does not expose.
     */
    void setDtmPolicy(std::unique_ptr<DtmPolicy> policy);

    Cycle now() const { return now_; }
    const Core &core() const { return core_; }
    const SimplifiedRCModel &thermal() const { return thermal_; }
    const DtmManager &dtm() const { return *dtm_; }
    const SimulatorStats &stats() const { return stats_; }
    const SimConfig &config() const { return cfg_; }
    const PowerVector &lastPower() const { return last_power_; }
    const FopdtPlant &dtmPlant() const { return plant_; }
    const Floorplan &floorplan() const { return floorplan_; }

    /** IPC over the measurement window (since resetMeasurement). */
    double measuredIpc() const { return core_.stats().ipc(); }

    /**
     * Performance over the measurement window normalized to nominal
     * clock periods of wall time: committed / (wall_seconds * f0).
     * Identical to measuredIpc() unless frequency scaling engaged —
     * with a scaled clock each simulated cycle covers more wall time,
     * which this metric charges against the run.
     */
    double measuredPerformance() const;

  private:
    /** The rings and flags shared by run()'s two stages. */
    struct Pipeline;

    /** Apply the DTM command in force to the core for cycle now_. */
    void applyCommand();
    /**
     * Power, thermal step, statistics and DTM observation of one cycle
     * whose core activity and clock scale are given.
     */
    void model(const CpuActivity &activity, double freq_scale,
               Cycle cycle);
    /** Model every recorded cycle; the caller owns the modelling task. */
    void modelRecorded();
    /**
     * Wait until the model has reached cycle `target`, modelling here
     * when no other thread is. @return the cycle the model reached.
     */
    Cycle awaitModel(Cycle target);
    /** run()'s core stage: cycles [now_, end). */
    void coreStage(Cycle end);
    /** run()'s side stage: op production and modelling until done. */
    void sideStage();

    SimConfig cfg_;
    std::unique_ptr<InstructionStream> workload_;
    /** Holds the op queue the core reads, so it precedes core_. */
    std::unique_ptr<Pipeline> pipe_;
    std::unique_ptr<DtmManager> dtm_;

    // The core stage's state.
    MemoryHierarchy memory_;
    Core core_;
    bool fetch_allowed_ = true;
    Cycle now_ = 0;
    double freq_scale_ = 1.0; ///< voltage/frequency scaling state
    Cycle resync_until_ = 0;
    Probe probe_;
    Cycle probe_interval_ = 0;

    // The model's state. run() writes it every cycle on another thread
    // than the core stage's, so it starts on a cache line of its own.
    alignas(64) PowerModel power_;
    Floorplan floorplan_;
    FopdtPlant plant_;
    SimplifiedRCModel thermal_;
    PowerVector last_power_;
    SimulatorStats stats_;
    double measured_wall_seconds_ = 0.0;
};

} // namespace thermctl

#endif // THERMCTL_SIM_SIMULATOR_HH
