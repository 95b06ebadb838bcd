/**
 * @file
 * Boxcar power-average temperature proxies (paper Section 6).
 *
 * Prior DTM work used a moving average of power over the last W cycles as
 * a stand-in for temperature. The paper evaluates two variants against
 * its RC model:
 *  - per-structure: trigger when avg power exceeds the power that would
 *    sustain the trigger temperature, P_trig = (T_trig - T_base) / R;
 *  - chip-wide: trigger when total average power exceeds a fixed
 *    wattage threshold (Brooks & Martonosi's style; the paper uses 47 W
 *    for its configuration).
 */

#ifndef THERMCTL_THERMAL_BOXCAR_HH
#define THERMCTL_THERMAL_BOXCAR_HH

#include <vector>

#include "common/stats.hh"
#include "power/structures.hh"
#include "thermal/floorplan.hh"
#include "thermal/rc_model.hh"

namespace thermctl
{

/** Per-structure boxcar power proxy. */
class StructureBoxcarProxy
{
  public:
    /**
     * @param floorplan provides per-block thermal R
     * @param cfg thermal thresholds (trigger = emergency level)
     * @param window boxcar length in cycles (paper: 10 K and 500 K)
     */
    StructureBoxcarProxy(const Floorplan &floorplan,
                         const ThermalConfig &cfg, std::size_t window,
                         Celsius trigger_temp);

    /** Fold one cycle of per-structure power into the windows. */
    void add(const PowerVector &power);

    /** @return true if the proxy considers this block triggered. */
    bool triggered(StructureId id) const;

    std::size_t window() const;

  private:
    std::vector<BoxcarAverage> averages_;
    std::array<Watts, kNumStructures> trigger_power_{};
};

/** Chip-wide boxcar power proxy with a fixed wattage trigger. */
class ChipBoxcarProxy
{
  public:
    ChipBoxcarProxy(std::size_t window, Watts trigger_watts);

    /** Fold one cycle of total chip power into the window. */
    void add(Watts total_power);

    bool triggered() const;
    std::size_t window() const { return avg_.window(); }

  private:
    BoxcarAverage avg_;
    Watts trigger_watts_;
};

/**
 * Accumulates the paper's Table 9/10 comparison between a proxy and the
 * RC reference model: cycles where the reference sees an emergency but
 * the proxy does not ("missed"), and cycles where the proxy triggers
 * without a reference emergency ("false triggers").
 */
struct ProxyComparison
{
    std::uint64_t cycles = 0;
    std::uint64_t reference_emergencies = 0;
    std::uint64_t proxy_triggers = 0;
    std::uint64_t missed = 0;  ///< reference hot, proxy silent
    std::uint64_t false_triggers = 0; ///< proxy hot, reference fine

    /** Record one cycle of observations. */
    void
    record(bool reference_hot, bool proxy_hot)
    {
        ++cycles;
        if (reference_hot)
            ++reference_emergencies;
        if (proxy_hot)
            ++proxy_triggers;
        if (reference_hot && !proxy_hot)
            ++missed;
        if (proxy_hot && !reference_hot)
            ++false_triggers;
    }

    /** @return fraction of reference emergencies the proxy missed. */
    double
    missRate() const
    {
        return reference_emergencies
            ? static_cast<double>(missed)
                  / static_cast<double>(reference_emergencies)
            : 0.0;
    }

    /** @return false triggers as a fraction of all cycles. */
    double
    falseTriggerRate() const
    {
        return cycles ? static_cast<double>(false_triggers)
                          / static_cast<double>(cycles)
                      : 0.0;
    }
};

} // namespace thermctl

#endif // THERMCTL_THERMAL_BOXCAR_HH
