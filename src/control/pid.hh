/**
 * @file
 * Discrete PID controller (paper Section 3).
 *
 * The controller output is the superposition of proportional, integral
 * and derivative actions on the error e = setpoint - measurement:
 *
 *      u(t) = Kp e(t) + Ki * integral(e) + Kd * de/dt
 *
 * clamped to [out_min, out_max]. Anti-windup follows the paper's
 * Section 3.3: the integrator freezes whenever the un-clamped output
 * saturates the actuator and the error would push it further into
 * saturation, and the integral term itself is clamped so it can never
 * drive the output beyond the actuator range on its own ("preventing the
 * integral from taking on a [saturating] value").
 *
 * For DTM, u in [0, 1] is the permitted fetch duty: 1 = full speed,
 * 0 = fetch fully toggled off.
 */

#ifndef THERMCTL_CONTROL_PID_HH
#define THERMCTL_CONTROL_PID_HH

#include <cstdint>

#include "common/types.hh"

namespace thermctl
{

/** Anti-windup strategies. */
enum class AntiWindup
{
    None,        ///< plain integrator (exhibits windup)
    Conditional, ///< freeze integration while saturated in-error-direction
};

/** PID gains and limits. */
struct PidConfig
{
    double kp = 0.0;
    double ki = 0.0;        ///< per second
    double kd = 0.0;        ///< seconds
    double setpoint = 0.0;
    Seconds dt = 1.0;       ///< sampling period
    double out_min = 0.0;
    double out_max = 1.0;
    AntiWindup anti_windup = AntiWindup::Conditional;
    /**
     * First-order smoothing coefficient for the derivative term in
     * (0, 1]; 1 = raw difference. Derivative acts on the measurement to
     * avoid setpoint-change kicks.
     */
    double derivative_filter = 1.0;

    /**
     * Initial value of the integral term. DTM controllers start it at
     * out_max so a cool chip runs at full speed from the first sample
     * instead of waiting for the integrator to wind up to the rail.
     */
    double integral_init = 0.0;
};

/** Discrete PID controller with anti-windup. */
class PidController
{
  public:
    explicit PidController(const PidConfig &cfg);

    /**
     * Run one control step with the latest measurement.
     * @return the clamped controller output.
     */
    double update(double measurement);

    /** Reset dynamic state (integral, derivative history). */
    void reset();

    const PidConfig &config() const { return cfg_; }

  private:
    PidConfig cfg_;
    double integral_ = 0.0;       ///< integral *term* (already x Ki)
    double prev_measurement_ = 0.0;
    double derivative_ = 0.0;     ///< filtered derivative of measurement
    double output_ = 0.0;
    bool primed_ = false;
};

} // namespace thermctl

#endif // THERMCTL_CONTROL_PID_HH
