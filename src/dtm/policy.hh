/**
 * @file
 * DTM policies (paper Sections 2 and 5.3).
 *
 * Non-control-theoretic baselines (all from Brooks & Martonosi, as the
 * paper describes):
 *  - NoDtmPolicy: run free (the paper's non-TM baseline IPC).
 *  - FixedTogglePolicy: toggle1/toggle2 — a fixed fetch duty engaged at
 *    a trigger temperature, held for a policy delay.
 *  - FetchThrottlePolicy: fetch every cycle at reduced width; the
 *    I-cache and predictor stay busy, so some hot spots persist.
 *  - SpeculationControlPolicy: block fetch while too many unresolved
 *    branches are in flight; ineffective under good prediction.
 *  - VoltageScalingPolicy: global voltage/frequency scaling with a
 *    clock-resynchronization stall and a long policy delay.
 *  - ManualProportionalPolicy ("M"): the paper's hand-built adaptive
 *    controller — duty proportional to the temperature's position
 *    within [trigger, emergency].
 *
 * Control-theoretic (CT-DTM):
 *  - CtPolicy: a P/PI/PID controller on the hottest sensed structure,
 *    sampled every 1000 cycles, output quantized by the actuator.
 */

#ifndef THERMCTL_DTM_POLICY_HH
#define THERMCTL_DTM_POLICY_HH

#include <memory>
#include <string>

#include "common/types.hh"
#include "control/pid.hh"
#include "control/tuning.hh"
#include "thermal/rc_model.hh"

namespace thermctl
{

/**
 * The actuator settings a policy requests for the next sampling
 * interval. Defaults mean "run free".
 */
struct DtmCommand
{
    /** Fetch-toggling duty: 1 = full speed, 0 = fetch off. */
    double duty = 1.0;

    /** Fetch-width cap (throttling); 0 = unlimited. */
    std::uint32_t width_limit = 0;

    /** Max unresolved branches before fetch blocks; 0 = disabled. */
    std::uint32_t spec_limit = 0;

    /** Global clock-frequency scale in (0, 1]; voltage follows. */
    double freq_scale = 1.0;

    bool
    operator==(const DtmCommand &other) const
    {
        return duty == other.duty && width_limit == other.width_limit
            && spec_limit == other.spec_limit
            && freq_scale == other.freq_scale;
    }
};

/** Interface: map sensed temperatures to actuator settings. */
class DtmPolicy
{
  public:
    virtual ~DtmPolicy() = default;

    /**
     * Called once per sampling interval with the sensed temperatures.
     * @return the actuator command to hold until the next sample.
     */
    virtual DtmCommand onSample(const TemperatureVector &sensed,
                                Cycle now) = 0;

    /** @return short policy name for reports ("toggle1", "PID", ...). */
    virtual std::string name() const = 0;

    /** Reset dynamic state between runs. */
    virtual void reset() {}
};

/** Always run at full speed. */
class NoDtmPolicy : public DtmPolicy
{
  public:
    DtmCommand onSample(const TemperatureVector &, Cycle) override
    {
        return {};
    }

    std::string name() const override { return "none"; }
};

/**
 * Common machinery for the fixed-response mechanisms: engage at a
 * trigger temperature, hold for at least the policy delay.
 */
class TriggeredPolicy : public DtmPolicy
{
  public:
    TriggeredPolicy(Celsius trigger, Cycle policy_delay_cycles,
                    std::string name);

    DtmCommand onSample(const TemperatureVector &sensed,
                        Cycle now) override;
    std::string name() const override { return name_; }
    void reset() override;

  protected:
    /** The actuator settings applied while engaged. */
    virtual DtmCommand engagedCommand() const = 0;

  private:
    Celsius trigger_;
    Cycle policy_delay_;
    std::string name_;
    bool engaged_ = false;
    Cycle engaged_until_ = 0;
};

/** Brooks & Martonosi fixed-response toggling (toggle1 / toggle2). */
class FixedTogglePolicy : public TriggeredPolicy
{
  public:
    /**
     * @param duty duty applied while engaged (0 = toggle1, 0.5 = toggle2)
     * @param trigger engage when any hot-spot sensor reaches this level
     * @param policy_delay_cycles minimum engagement time once triggered
     */
    FixedTogglePolicy(double duty, Celsius trigger,
                      Cycle policy_delay_cycles, std::string name);

  protected:
    DtmCommand engagedCommand() const override;

  private:
    double duty_;
};

/** Fetch throttling: reduced fetch width while engaged. */
class FetchThrottlePolicy : public TriggeredPolicy
{
  public:
    FetchThrottlePolicy(std::uint32_t width_limit, Celsius trigger,
                        Cycle policy_delay_cycles);

  protected:
    DtmCommand engagedCommand() const override;

  private:
    std::uint32_t width_limit_;
};

/** Speculation control: bounded unresolved branches while engaged. */
class SpeculationControlPolicy : public TriggeredPolicy
{
  public:
    SpeculationControlPolicy(std::uint32_t max_branches, Celsius trigger,
                             Cycle policy_delay_cycles);

  protected:
    DtmCommand engagedCommand() const override;

  private:
    std::uint32_t max_branches_;
};

/** Global voltage/frequency scaling while engaged. */
class VoltageScalingPolicy : public TriggeredPolicy
{
  public:
    /**
     * @param freq_scale engaged clock scale in (0, 1)
     * @param trigger engage threshold
     * @param policy_delay_cycles hold time; scaling pays a
     *        resynchronization stall on every transition, so the delay
     *        must be long (the paper's "significant policy delay")
     */
    VoltageScalingPolicy(double freq_scale, Celsius trigger,
                         Cycle policy_delay_cycles);

  protected:
    DtmCommand engagedCommand() const override;

  private:
    double freq_scale_;
};

/**
 * The paper's Section 2.1 "hierarchy of TM techniques": a low-cost
 * primary mechanism (typically CT fetch toggling) runs normally; "only
 * when temperature gets truly close to emergency would auxiliary
 * mechanisms like voltage/frequency scaling be employed". The backup
 * engages at its own (higher) trigger and holds for a long delay,
 * overriding the primary's frequency field while leaving its toggling
 * in place.
 */
class HierarchicalPolicy : public DtmPolicy
{
  public:
    /**
     * @param primary the always-on mechanism (owned)
     * @param backup_trigger engage scaling at this temperature
     * @param backup_scale clock scale while the backup is engaged
     * @param backup_delay minimum backup engagement (long: every
     *        transition costs a resynchronization stall)
     */
    HierarchicalPolicy(std::unique_ptr<DtmPolicy> primary,
                       Celsius backup_trigger, double backup_scale,
                       Cycle backup_delay);

    DtmCommand onSample(const TemperatureVector &sensed,
                        Cycle now) override;
    std::string name() const override;
    void reset() override;

  private:
    std::unique_ptr<DtmPolicy> primary_;
    Celsius backup_trigger_;
    double backup_scale_;
    Cycle backup_delay_;
    bool engaged_ = false;
    Cycle engaged_until_ = 0;
};

/** The paper's manually designed proportional controller "M". */
class ManualProportionalPolicy : public DtmPolicy
{
  public:
    /**
     * Duty falls linearly from 1 at `low` to 0 at `high`
     * (paper: low = trigger level, high = emergency level).
     */
    ManualProportionalPolicy(Celsius low, Celsius high);

    DtmCommand onSample(const TemperatureVector &sensed,
                        Cycle now) override;
    std::string name() const override { return "M"; }

  private:
    Celsius low_;
    Celsius high_;
};

/** Control-theoretic policy: P, PI or PID on the hottest structure. */
class CtPolicy : public DtmPolicy
{
  public:
    /**
     * @param kind controller family
     * @param pid tuned gains (output range forced to [0, 1])
     * @param range_low sensor-range floor: below this temperature the
     *        controller is quiescent and fetch runs at full speed (the
     *        "trigger threshold above which toggling starts to engage")
     */
    CtPolicy(ControllerKind kind, const PidConfig &pid, Celsius range_low);

    DtmCommand onSample(const TemperatureVector &sensed,
                        Cycle now) override;
    std::string name() const override;
    void reset() override;

  private:
    ControllerKind kind_;
    PidController controller_;
    Celsius range_low_;
};

} // namespace thermctl

#endif // THERMCTL_DTM_POLICY_HH
