/**
 * @file
 * Grid-refined thermal model — the finer-granularity direction the
 * paper names as future work (and which matured into HotSpot).
 *
 * The die is discretized into square cells. Each cell has a vertical RC
 * path to the heatsink base (calibrated per owning block exactly like
 * the lumped model, so the two agree for a uniformly heated isolated
 * block) plus lateral conduction to its four neighbours through the
 * silicon slab. Block power is spread uniformly over the block's cells.
 *
 * Compared to the paper's block-lumped Fig. 3C network this resolves
 * within-block gradients and cross-block-boundary heating, at a cost of
 * O(cells) per step — suitable for analysis benches, not the per-cycle
 * main loop (see bench/ablation_granularity).
 */

#ifndef THERMCTL_THERMAL_GRID_MODEL_HH
#define THERMCTL_THERMAL_GRID_MODEL_HH

#include <cstdint>
#include <vector>

#include "power/structures.hh"
#include "thermal/floorplan.hh"
#include "thermal/rc_model.hh"

namespace thermctl
{

/** Fine-grained cell-based thermal model of the die. */
class GridThermalModel
{
  public:
    /**
     * @param floorplan block placement and calibration
     * @param cfg thermal environment
     * @param dt_seconds base timestep (one clock cycle)
     * @param cell_mm cell edge length; the 10 mm die must divide evenly
     */
    GridThermalModel(const Floorplan &floorplan, const ThermalConfig &cfg,
                     double dt_seconds, double cell_mm = 0.5);

    /** Advance one cycle with the given per-block power. */
    void step(const PowerVector &power);

    /**
     * Advance `cycles` cycles under constant power, sub-stepping at a
     * numerically safe interval.
     */
    void stepSpan(const PowerVector &power, std::uint64_t cycles);

    /** Hottest cell within a block. */
    Celsius blockMax(StructureId id) const;

    /** Area-weighted mean temperature of a block. */
    Celsius blockMean(StructureId id) const;

    /** Max minus min cell temperature within a block. */
    Celsius blockGradient(StructureId id) const;

  private:
    std::size_t index(std::uint32_t ix, std::uint32_t iy) const
    {
        return static_cast<std::size_t>(iy) * n_ + ix;
    }

    const Floorplan &floorplan_;
    ThermalConfig cfg_;
    double dt_;
    double cell_mm_;
    std::uint32_t n_ = 0;

    std::vector<Celsius> temps_;
    /** Owning block of each cell. */
    std::vector<StructureId> owner_;
    /** dt / C per cell. */
    std::vector<double> inv_c_;
    /** Vertical conductance to the base, W/K, per cell. */
    std::vector<double> g_vert_;
    /** Lateral conductance between adjacent cells, W/K. */
    double g_lat_ = 0.0;
    /** Power share per cell of each block (1 / cells_in_block). */
    std::array<double, kNumStructures> block_cell_share_{};
    /** Largest stable Euler sub-step, in cycles. */
    std::uint64_t max_substep_cycles_ = 1;
    std::vector<double> flow_scratch_;
};

} // namespace thermctl

#endif // THERMCTL_THERMAL_GRID_MODEL_HH
