/**
 * @file
 * N-core lumped thermal-RC network (ROADMAP item 2; DESIGN.md §15).
 *
 * Each core is a full paper floorplan wired as the paper's detailed
 * Figure 3B network: per-block normal paths to the heatsink plus
 * tangential block-to-block resistances. All cores share ONE
 * heat-spreader/heatsink node whose capacitance and ambient conductance
 * scale with the core count, and adjacent cores in the row exchange heat
 * through lateral coupling resistances between their facing boundary
 * blocks (the blocks that touch the die's vertical edges — cores are
 * mirrored, so the same structure faces itself across the seam).
 *
 * With num_cores == 1 (a default MulticoreConfig) the coupling list is
 * empty and the sink parameters reduce to the single-chip values: the
 * model IS the single-core Figure 3B network, the reference the paper's
 * simplified Figure 3C model (SimplifiedRCModel) is checked against
 * (bench/ablation_thermal_model). tests/test_multicore.cc pins its
 * one-core trajectory bit-for-bit.
 */

#ifndef THERMCTL_MULTICORE_CHIP_MODEL_HH
#define THERMCTL_MULTICORE_CHIP_MODEL_HH

#include <vector>

#include "sim/config.hh"
#include "thermal/rc_model.hh"

namespace thermctl::multicore
{

/** One lateral inter-core path: same block id on both facing cores. */
struct CouplingPath
{
    std::size_t block = 0; ///< structure index coupled across the seam
    double conductance = 0.0; ///< 1 / coupling_resistance, W/K
};

/** The N-core thermal network. */
class ChipModel
{
  public:
    /**
     * @param floorplan the per-core floorplan (shared by every core)
     * @param cfg thermal thresholds/environment
     * @param dt integration step (one nominal clock period)
     * @param mc core count and coupling knobs (validated; fatal on
     *        nonsense)
     */
    ChipModel(const Floorplan &floorplan, const ThermalConfig &cfg,
              Seconds dt, const MulticoreConfig &mc);

    /**
     * Advance one cycle. `power` holds one PowerVector per core
     * (size checked under THERMCTL_INVARIANTS).
     */
    void step(const std::vector<PowerVector> &power);

    /**
     * Advance `cycles` cycles under constant power, sub-stepping at a
     * numerically safe interval. Guarded by the energy-balance audit
     * when invariants are enabled: stored-energy delta must equal input
     * minus ambient loss over the span.
     */
    void stepSpan(const std::vector<PowerVector> &power,
                  std::uint64_t cycles);

    /** Jump to the steady state implied by the given per-core powers
     *  (coupling and tangential flows neglected — warm-start only). */
    void warmStart(const std::vector<PowerVector> &power);

    /** Copy one core's block temperatures (e.g. from a simplified-model
     *  state); the sink keeps its current temperature. */
    void setTemperatures(std::size_t core, const TemperatureVector &temps);

    const TemperatureVector &temperatures(std::size_t core) const
    {
        return temps_[core];
    }

    Celsius heatsinkTemperature() const { return t_sink_; }

    /** Lateral paths between each adjacent core pair (tests). */
    const std::vector<CouplingPath> &couplingPaths() const
    {
        return coupling_;
    }

  private:
    const Floorplan &floorplan_;
    ThermalConfig cfg_;
    Seconds dt_;

    std::vector<TemperatureVector> temps_; ///< [core]
    Celsius t_sink_;

    /** Per-core conductances (identical for every core):
     *  [i][j] between blocks, [i][N] block to the shared sink. */
    std::array<std::array<double, kNumStructures + 1>, kNumStructures>
        conductance_{};
    /** Applied between cores c and c+1 for every adjacent pair. */
    std::vector<CouplingPath> coupling_;

    double sink_to_ambient_g_ = 0.0;
    double sink_capacitance_ = 0.0; ///< num_cores * chip_capacitance
    double max_g_over_c_ = 0.0;     ///< stiffest node's total G / C, 1/s

    // Scratch reused across step() calls (no per-step allocation).
    std::vector<std::array<double, kNumStructures>> flow_;
};

} // namespace thermctl::multicore

#endif // THERMCTL_MULTICORE_CHIP_MODEL_HH
