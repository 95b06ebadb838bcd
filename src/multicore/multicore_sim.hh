/**
 * @file
 * The multicore simulator (DESIGN.md §15): N independent cores on one
 * shared nominal clock grid, coupled through the ChipModel thermal
 * network and coordinated by the budget supervisor.
 *
 * Time model: the engine advances on the NOMINAL clock grid. A core at
 * DVFS scale s executes on the fraction s of nominal cycles (spread
 * evenly by the ladder's Bresenham gate) and skips the rest, so one
 * nominal cycle is always one fixed wall-clock period and every core's
 * thermal trace shares one time base. Dynamic power of an executed
 * cycle is scaled by f*V^2; ladder leakage scales linearly with V (a
 * deliberate simplification versus the single-core engine's V^2 — see
 * DESIGN.md §15).
 *
 * Control hierarchy, once per sample interval:
 *   1. the thermal network integrates the window's average power;
 *   2. each per-core controller maps its hottest block to a duty;
 *   3. once per budget epoch the coordinator re-splits the chip budget
 *      and each core's ladder level is capped so its estimated power
 *      stays under its share.
 */

#ifndef THERMCTL_MULTICORE_MULTICORE_SIM_HH
#define THERMCTL_MULTICORE_MULTICORE_SIM_HH

#include <memory>
#include <vector>

#include "cpu/core.hh"
#include "dtm/actuator.hh"
#include "multicore/budget_coordinator.hh"
#include "multicore/chip_model.hh"
#include "multicore/core_controller.hh"
#include "sim/experiment.hh"
#include "workload/synthetic.hh"

namespace thermctl::multicore
{

/** Per-structure measurement aggregates across the chip. */
struct ChipStructureStats
{
    double temp_sum = 0.0; ///< sum over cores and cycles (mean of cores)
    Celsius temp_max = std::numeric_limits<double>::lowest();
    std::uint64_t emergency_cycles = 0; ///< any core's block above
    std::uint64_t stress_cycles = 0;
    double power_sum = 0.0; ///< watt-cycles, summed over cores
};

/** Whole-chip measurement aggregates. */
struct ChipStats
{
    std::uint64_t nominal_cycles = 0;
    std::uint64_t executed_cycles = 0;  ///< summed over cores
    std::uint64_t committed = 0;        ///< summed over cores, per run()
    std::uint64_t emergency_cycles = 0; ///< any block of any core above
    std::uint64_t stress_cycles = 0;
    std::uint64_t samples = 0;
    double freq_scale_sum = 0.0; ///< per-core scale summed per sample
    Celsius max_temperature = std::numeric_limits<double>::lowest();
    std::array<ChipStructureStats, kNumStructures> structures{};
};

/** One fully wired N-core simulation instance. */
class MulticoreSimulator
{
  public:
    /**
     * Fatal on invalid multicore config, a zero sample interval, or an
     * unsupported policy kind.
     */
    explicit MulticoreSimulator(const SimConfig &cfg);

    /**
     * Advance n nominal cycles, one window segment at a time: the cores
     * of a segment tick in parallel (common/parallel.hh), and every
     * segment that completes a sample interval ends in sample().
     */
    void run(std::uint64_t nominal_cycles);

    /** The standard protocol: half cold, warm-start, settle, reset. */
    void warmUp(std::uint64_t cycles);

    /** Clear measurement statistics (not the machine state). */
    void resetMeasurement();

    const ChipStats &stats() const { return stats_; }
    const SimConfig &config() const { return cfg_; }

    /** Core-c clock scale currently commanded (tests). */
    double freqScale(std::size_t c) const
    {
        return cores_[c]->ladder.freqScale();
    }

  private:
    struct CoreUnit
    {
        std::unique_ptr<InstructionStream> workload;
        std::unique_ptr<MemoryHierarchy> memory;
        std::unique_ptr<Core> core;
        DvfsLadder ladder;
        std::unique_ptr<CoreController> controller;
        /** Dynamic energy accumulated this sample window (W-cycles). */
        PowerVector window_power;
        /** Power accumulated over the measurement window (W-cycles). */
        PowerVector meas_power;
        /** Ladder level cap from the current budget split. */
        std::uint32_t budget_cap_level;
        /** Cycles executed in the current segment (see run()). */
        std::uint64_t executed_cycles = 0;

        CoreUnit(std::uint32_t levels, double min_scale)
            : ladder(levels, min_scale), budget_cap_level(levels)
        {
        }
    };

    /**
     * Advance one core `cycles` nominal cycles inside a sample window.
     * Touches only `unit` and const shared state, so the cores of a
     * segment run concurrently.
     */
    void runCore(CoreUnit &unit, std::uint64_t cycles) const;

    /** Close a sample window: thermal step, metrics, control, budget. */
    void sample();

    /** Highest ladder level whose power scale fits under `cap`. */
    std::uint32_t capLevel(Watts full_speed_demand, Watts cap) const;

    /** Committed instructions summed over cores (measurement window). */
    std::uint64_t committedTotal() const;

    SimConfig cfg_;
    Floorplan floorplan_;
    PowerModel power_;
    ChipModel chip_;
    std::vector<std::unique_ptr<CoreUnit>> cores_;
    std::unique_ptr<BudgetCoordinator> coordinator_;

    std::uint64_t since_sample_ = 0;
    std::uint32_t samples_since_epoch_ = 0;

    // Scratch reused every sample (no steady-state allocation).
    std::vector<PowerVector> sample_power_;
    std::vector<Celsius> hottest_;
    std::vector<Watts> demand_;

    ChipStats stats_;
};

/**
 * Run one multicore config under the warm-up/measure protocol and
 * aggregate the chip metrics into the single-core RunResult shape
 * (per-structure details are means/maxima across cores; powers are
 * chip totals). ExperimentRunner::runOne calls it for every config
 * needsMulticoreEngine selects.
 */
RunResult runMulticoreOne(const SimConfig &cfg, const RunProtocol &proto);

/** Nothing to set up; kept under the name the perf harness calls. */
inline void
ensureBackendRegistered()
{
}

} // namespace thermctl::multicore

#endif // THERMCTL_MULTICORE_MULTICORE_SIM_HH
