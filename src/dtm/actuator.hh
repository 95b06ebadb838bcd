/**
 * @file
 * DTM actuators.
 *
 * FetchToggler (paper Sections 2.2 and 5.3): the controller output
 * (0-100%) is quantized to eight evenly spaced duty levels; a
 * Bresenham-style accumulator spreads the permitted fetch cycles evenly
 * through time, so level 4/7 really fetches 4 of every 7 cycles rather
 * than in bursts. Level 7 is full speed; level 0 is the paper's toggle1
 * (fetch fully disabled).
 *
 * DvfsLadder (multicore extension): a discrete frequency/voltage
 * operating-point ladder for per-core DVFS. The controller's continuous
 * output is quantized to a level; each level fixes a clock scale and a
 * supply-voltage ratio, from which dynamic power scales with f*V^2 and
 * ladder leakage with V (linear — a deliberate simplification versus the
 * single-core engine's V^2 leakage scaling; see DESIGN.md §15).
 */

#ifndef THERMCTL_DTM_ACTUATOR_HH
#define THERMCTL_DTM_ACTUATOR_HH

#include <cstdint>

namespace thermctl
{

/** Evenly distributed fetch duty-cycle generator. */
class FetchToggler
{
  public:
    /** @param levels number of discrete duty levels above zero (paper: 7,
     *  giving eight values 0/7 .. 7/7). */
    explicit FetchToggler(std::uint32_t levels = 7);

    /**
     * Set the duty as a fraction in [0, 1]; it is quantized to the
     * nearest discrete level.
     */
    void setDuty(double duty);

    /** Set the discrete level directly (clamped to [0, levels]). */
    void setLevel(std::uint32_t level);

    /** @return current discrete level in [0, levels]. */
    std::uint32_t level() const { return level_; }

    /** @return whether fetch is permitted this cycle; advances state. */
    bool allowFetch();

    std::uint32_t levels() const { return levels_; }

  private:
    std::uint32_t levels_;
    std::uint32_t level_;
    std::uint32_t accumulator_ = 0;
};

/**
 * Discrete per-core DVFS operating-point ladder.
 *
 * Level L in [0, levels] maps to the clock scale
 *   scale(L) = min_scale + (1 - min_scale) * L / levels
 * so level `levels` is the nominal operating point (scale 1.0) and
 * level 0 the floor. A scaled core executes on a subset of nominal-grid
 * clock edges, realized by the same Bresenham accumulator the fetch
 * toggler uses (clockGate()), which keeps the multicore engine on one
 * shared nominal time grid.
 */
class DvfsLadder
{
  public:
    /**
     * @param levels ladder levels above the floor (>= 1)
     * @param min_scale clock scale at level 0, in (0, 1)
     */
    explicit DvfsLadder(std::uint32_t levels = 7,
                        double min_scale = 0.3);

    /** Quantize a continuous duty in [0, 1] to the nearest level. */
    void setDuty(double duty);

    /** Set the discrete level directly (clamped to [0, levels]). */
    void setLevel(std::uint32_t level);

    std::uint32_t level() const { return level_; }
    std::uint32_t levels() const { return levels_; }

    /** @return clock scale of the current level, in (0, 1]. */
    double freqScale() const;

    /** @return clock scale of an arbitrary level (clamped). */
    double freqScale(std::uint32_t level) const;

    /**
     * Supply-voltage ratio V/V0 at the current level under the affine
     * V-f model: alpha + (1 - alpha) * freqScale().
     */
    double voltageRatio(double alpha) const;

    /** Dynamic-power multiplier f * (V/V0)^2 at the current level. */
    double powerScale(double alpha) const;

    /**
     * @return whether this core takes a clock edge on the current
     * nominal-grid cycle; advances the accumulator. At scale s the core
     * executes on the fraction s of nominal cycles, evenly spread.
     */
    bool clockGate();

  private:
    std::uint32_t levels_;
    std::uint32_t level_;
    double min_scale_;
    double accumulator_ = 0.0;
};

} // namespace thermctl

#endif // THERMCTL_DTM_ACTUATOR_HH
