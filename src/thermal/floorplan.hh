/**
 * @file
 * Die floorplan and per-block thermal parameters (paper Table 3 and
 * Section 4.3).
 *
 * Each structure is a rectangle on the die. Block thermal capacitance is
 * C = c_si * A * t_active, block normal resistance (to the heat spreader
 * / heatsink) is R = k_spread * rho_si * t_die / A, and tangential
 * resistances between adjacent blocks follow the paper's spreading
 * formula. k_spread is a per-structure constriction/interface factor: a
 * small hot block's heat must spread laterally before crossing the die,
 * so its effective resistance is a multiple of the one-dimensional
 * rho*t/A value — the same reason the paper's Table 3 R column is far
 * above rho*t/A for every block. Values are calibrated so sustained
 * worst-case activity produces the local temperature rises the paper
 * reports (up to ~10 degrees above the heatsink base).
 */

#ifndef THERMCTL_THERMAL_FLOORPLAN_HH
#define THERMCTL_THERMAL_FLOORPLAN_HH

#include <array>
#include <string>
#include <vector>

#include "common/types.hh"
#include "power/structures.hh"

namespace thermctl
{

/** A placed rectangular block (millimetres). */
struct BlockRect
{
    double x_mm = 0.0;
    double y_mm = 0.0;
    double w_mm = 0.0;
    double h_mm = 0.0;
};

/** Thermal parameters of one block. */
struct ThermalBlockParams
{
    StructureId id = StructureId::Lsq;
    double area_m2 = 0.0;
    KelvinPerWatt resistance = 0.0;  ///< block to heatsink (normal path)
    JoulePerKelvin capacitance = 0.0;
    /** @return thermal time constant R*C (the Table 1 algebra in use). */
    Seconds rc() const { return resistance * capacitance; }
};

/** A tangential (block-to-block) thermal resistance. */
struct TangentialResistance
{
    StructureId a;
    StructureId b;
    KelvinPerWatt resistance;
};

/** Floorplan / package configuration. */
struct FloorplanConfig
{
    double die_thickness_m = 100e-6;  ///< thinned wafer (paper: 0.1 mm)
    /**
     * Thickness of the silicon layer that heats on the fast (tens of
     * microseconds) time scale. The full die participates on slower
     * scales; using the active layer for C gives the paper's
     * tens-to-hundreds-of-microseconds block time constants.
     */
    double active_layer_m = 5e-6;

    /** Reference temperature for evaluating material properties. */
    Celsius reference_temp = 105.0;

    /**
     * Per-structure spreading/constriction factors (see file comment).
     * Order: Lsq, Window, Regfile, Bpred, DCache, IntExec, FpExec, Rest.
     */
    std::array<double, kNumStructures> k_spread{
        14.3, 15.9, 9.3, 16.5, 16.7, 10.0, 8.5, 8.0};

    // Chip-level package path (paper Table 3 last row).
    KelvinPerWatt chip_resistance = 0.34;  ///< die+heatsink to ambient
    JoulePerKelvin chip_capacitance = 60.0; ///< heatsink mass
    Celsius ambient = 27.0;

    /**
     * Optional HotSpot-style .flp file to load block placement from
     * (lines of `name width_m height_m left_x_m bottom_y_m`; one line
     * per structure, all eight required). Empty = the built-in layout.
     */
    std::string flp_path{};
};

/**
 * The die floorplan: block placement, derived thermal R/C per block, and
 * tangential resistances between neighbours.
 */
class Floorplan
{
  public:
    explicit Floorplan(const FloorplanConfig &cfg = {});

    const ThermalBlockParams &block(StructureId id) const;

    const BlockRect &rect(StructureId id) const;

    /** Tangential resistances between blocks that share an edge. */
    const std::vector<TangentialResistance> &tangential() const
    {
        return tangential_;
    }

    const FloorplanConfig &config() const { return cfg_; }

    /** Total die area in mm^2. */
    double dieAreaMm2() const;

  private:
    /** Parse a HotSpot .flp file into rects_ (fatal on bad input). */
    void loadFlp(const std::string &path);

    FloorplanConfig cfg_;
    std::array<BlockRect, kNumStructures> rects_;
    std::array<ThermalBlockParams, kNumStructures> blocks_;
    std::vector<TangentialResistance> tangential_;
};

} // namespace thermctl

#endif // THERMCTL_THERMAL_FLOORPLAN_HH
