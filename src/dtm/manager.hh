/**
 * @file
 * The DTM manager: samples sensors at the configured interval, runs the
 * policy, applies the engagement mechanism (direct microarchitectural
 * signal, or interrupt-based with a fixed delay), and drives the fetch
 * toggler. Also accumulates the paper's success metrics: cycles in
 * thermal emergency and cycles of thermal stress.
 */

#ifndef THERMCTL_DTM_MANAGER_HH
#define THERMCTL_DTM_MANAGER_HH

#include <memory>
#include <limits>

#include "dtm/actuator.hh"
#include "dtm/policy.hh"
#include "dtm/sensor.hh"

namespace thermctl
{

/** How a policy decision reaches the actuator (paper Section 2.1). */
enum class EngagementMechanism
{
    Direct,    ///< dedicated signal: takes effect immediately
    Interrupt, ///< OS interrupt handler: fixed delay per change
};

/** DTM manager configuration. */
struct DtmConfig
{
    /** Controller/policy sampling interval (paper: 1000 cycles). */
    Cycle sample_interval = 1000;

    EngagementMechanism engagement = EngagementMechanism::Direct;

    /** Interrupt cost in cycles when engagement is Interrupt. */
    Cycle interrupt_delay = 250;

    /**
     * Pipeline stall (in nominal cycles) while the clock resynchronizes
     * after a voltage/frequency change (paper Section 2.1: "the
     * processor must stall ... while the clock re-synchronizes").
     */
    Cycle resync_cycles = 15000;

    /** Discrete duty levels above zero (paper: 7 -> 8 values). */
    std::uint32_t toggle_levels = 7;

    SensorConfig sensor{};
};

/** Aggregated DTM behaviour metrics. */
struct DtmStats
{
    std::uint64_t cycles = 0;
    std::uint64_t emergency_cycles = 0; ///< any hot-spot above emergency
    std::uint64_t stress_cycles = 0;    ///< any hot-spot above stress
    std::uint64_t samples = 0;
    std::uint64_t engaged_cycles = 0;   ///< cycles with duty < 1
    double duty_sum = 0.0;              ///< mean duty = duty_sum / samples
    Celsius max_temperature = std::numeric_limits<double>::lowest();

    double
    emergencyFraction() const
    {
        return cycles ? static_cast<double>(emergency_cycles)
                          / static_cast<double>(cycles)
                      : 0.0;
    }

    double
    stressFraction() const
    {
        return cycles ? static_cast<double>(stress_cycles)
                          / static_cast<double>(cycles)
                      : 0.0;
    }
};

/** Orchestrates sensing, policy evaluation, and fetch gating. */
class DtmManager
{
  public:
    /**
     * @param cfg manager configuration
     * @param thermal_cfg thresholds used for the metrics
     * @param policy the DTM policy (owned)
     */
    DtmManager(const DtmConfig &cfg, const ThermalConfig &thermal_cfg,
               std::unique_ptr<DtmPolicy> policy);

    /**
     * Observe the true temperatures for the current cycle and decide
     * whether fetch is permitted next cycle: observe() then actuate().
     * @return true when fetch should be enabled.
     */
    bool
    tick(const TemperatureVector &truth, Cycle now)
    {
        observe(truth, now);
        return actuate(now);
    }

    /**
     * The measuring half of tick(): the emergency/stress statistics of
     * `truth` and, when `now` is a multiple of the sample interval, the
     * sensor read and policy sample. Cycles must not decrease from one
     * call to the next. Between samples it touches only the statistics
     * actuate() leaves alone, so the two halves of different cycles may
     * run on different threads as long as every sample cycle's observe()
     * happens before that cycle's actuate().
     */
    void observe(const TemperatureVector &truth, Cycle now);

    /**
     * The actuating half of tick(): land a due interrupt-delayed
     * command, advance the fetch toggler and count engaged cycles.
     * @return true when fetch should be enabled next cycle.
     */
    bool actuate(Cycle now);

    /**
     * The actuator command currently in force (after the engagement
     * mechanism). The simulator applies its width/speculation/frequency
     * fields to the core every cycle; the duty field is realized by the
     * manager's own toggler.
     */
    const DtmCommand &command() const { return current_command_; }

    DtmStats
    stats() const
    {
        DtmStats s = stats_;
        s.engaged_cycles = engaged_cycles_;
        return s;
    }

    /** Reset metrics (start of a measurement window). */
    void
    resetStats()
    {
        stats_ = DtmStats{};
        engaged_cycles_ = 0;
    }

    DtmPolicy &policy() { return *policy_; }
    const DtmConfig &config() const { return cfg_; }

  private:
    DtmConfig cfg_;
    ThermalConfig thermal_cfg_;
    std::unique_ptr<DtmPolicy> policy_;
    SensorBank sensors_;

    // actuate()'s state, written every cycle. Simulator::run calls
    // actuate() and observe() on different threads, so each half's
    // per-cycle state has cache lines of its own.
    alignas(64) FetchToggler toggler_;
    DtmCommand pending_command_{};
    Cycle pending_at_ = 0;
    bool has_pending_ = false;
    DtmCommand current_command_{};
    std::uint64_t engaged_cycles_ = 0;

    // observe()'s state, written every cycle.
    /** No sample before this cycle; replaces a per-cycle modulo. */
    alignas(64) Cycle next_sample_ = 0;
    DtmStats stats_; ///< engaged_cycles stays 0 here; see stats()
};

} // namespace thermctl

#endif // THERMCTL_DTM_MANAGER_HH
