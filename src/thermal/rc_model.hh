/**
 * @file
 * Lumped thermal-RC models (paper Section 4).
 *
 * SimplifiedRCModel is the paper's Figure 3C network: every block has an
 * independent RC path to a quasi-constant base (heatsink) temperature,
 * integrated per cycle with the paper's Eq. 5 difference equation, or
 * advanced exactly over multi-cycle spans with the closed-form
 * exponential solution (the two agree to first order in dt/RC; the exact
 * form is used to accelerate long idle spans and as a test oracle).
 *
 * The detailed Figure 3B network (tangential block-to-block resistances
 * plus an explicit heatsink node) is multicore::ChipModel at one core;
 * bench/ablation_thermal_model validates the simplification against it.
 *
 * ChipLevelModel tracks the single chip-wide RC (paper Table 3 last row)
 * whose ~seconds time constant is the reason chip-wide temperature cannot
 * react to — or even see — localized heating.
 */

#ifndef THERMCTL_THERMAL_RC_MODEL_HH
#define THERMCTL_THERMAL_RC_MODEL_HH

#include <array>

#include "common/types.hh"
#include "power/structures.hh"
#include "thermal/floorplan.hh"

namespace thermctl
{

/** Thermal thresholds and environment (reconstructed; see DESIGN.md). */
struct ThermalConfig
{
    /** Quasi-static heatsink/base temperature under load. */
    Celsius t_base = 108.0;

    /** Thermal-emergency threshold (structure damage above this). */
    Celsius t_emergency = 111.8;

    /** "Thermal stress" level used by the paper's Tables 4/7/8. */
    Celsius
    stressLevel() const
    {
        return t_emergency - 1.0;
    }
};

/** Per-block temperatures. */
struct TemperatureVector
{
    std::array<Celsius, kNumStructures> value{};

    Celsius &operator[](StructureId id)
    {
        return value[static_cast<std::size_t>(id)];
    }

    Celsius operator[](StructureId id) const
    {
        return value[static_cast<std::size_t>(id)];
    }

    /** @return the hottest block among the paper's 7 hot-spot blocks. */
    Celsius
    maxHotspot() const
    {
        Celsius m = value[0];
        for (std::size_t i = 1; i < kNumHotspotStructures; ++i)
            m = std::max(m, value[i]);
        return m;
    }

    /** @return the id of the hottest hot-spot block. */
    StructureId
    hottest() const
    {
        std::size_t best = 0;
        for (std::size_t i = 1; i < kNumHotspotStructures; ++i)
            if (value[i] > value[best])
                best = i;
        return static_cast<StructureId>(best);
    }
};

/** The paper's simplified per-block RC network (Figure 3C). */
class SimplifiedRCModel
{
  public:
    SimplifiedRCModel(const Floorplan &floorplan, const ThermalConfig &cfg,
                      Seconds dt);

    /**
     * Advance one cycle with the given per-block power (paper Eq. 5,
     * forward Euler).
     */
    void step(const PowerVector &power);

    /**
     * Advance one cycle whose wall-clock duration is dt * dt_mult —
     * used under frequency scaling, where a slower clock stretches the
     * real time each simulated cycle covers.
     */
    void stepScaled(const PowerVector &power, double dt_mult);

    /**
     * Advance `cycles` cycles exactly, assuming the given power is
     * constant over the span (closed-form exponential update).
     */
    void stepExact(const PowerVector &power, std::uint64_t cycles);

    /** Jump every block to its steady state under the given power. */
    void warmStart(const PowerVector &power);

    const TemperatureVector &temperatures() const { return temps_; }

    /** Steady-state temperature of a block at the given power. */
    Celsius steadyState(StructureId id, Watts p) const;

    const ThermalConfig &config() const { return cfg_; }
    const Floorplan &floorplan() const { return floorplan_; }

  private:
    const Floorplan &floorplan_;
    ThermalConfig cfg_;
    Seconds dt_;
    TemperatureVector temps_;
    // Cached per-block coefficients.
    std::array<double, kNumStructures> inv_c_{};  ///< dt / C
    std::array<double, kNumStructures> inv_rc_{}; ///< dt / (R*C)
    double max_inv_rc_ = 0.0; ///< stiffest block's dt / (R*C)
};

/** Chip-wide single-RC model (paper Table 3 "chip" row). */
class ChipLevelModel
{
  public:
    ChipLevelModel(const FloorplanConfig &cfg, Celsius initial,
                   Seconds dt);

    /** Advance one cycle with the given total chip power. */
    void step(Watts total_power);

    /** Advance many cycles under constant power (exact exponential). */
    void stepExact(Watts total_power, std::uint64_t cycles);

    Celsius temperature() const { return temp_; }

  private:
    /** @return the chip-level time constant R*C. */
    Seconds timeConstant() const { return r_ * c_; }

    KelvinPerWatt r_;
    JoulePerKelvin c_;
    Celsius ambient_;
    Celsius temp_;
    Seconds dt_;
};

} // namespace thermctl

#endif // THERMCTL_THERMAL_RC_MODEL_HH
