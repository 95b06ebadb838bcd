#include "control/pid.hh"

#include <algorithm>

#include "check/invariants.hh"
#include "common/logging.hh"

namespace thermctl
{

PidController::PidController(const PidConfig &cfg) : cfg_(cfg)
{
    if (cfg.dt.value() <= 0.0)
        fatal("PidController: dt must be positive");
    if (cfg.out_min >= cfg.out_max)
        fatal("PidController: out_min must be below out_max");
    if (cfg.derivative_filter <= 0.0 || cfg.derivative_filter > 1.0)
        fatal("PidController: derivative_filter must be in (0, 1]");
    output_ = cfg.out_max;
    integral_ = cfg.integral_init;
}

void
PidController::reset()
{
    integral_ = cfg_.integral_init;
    prev_measurement_ = 0.0;
    derivative_ = 0.0;
    output_ = cfg_.out_max;
    primed_ = false;
}

double
PidController::update(double measurement)
{
    const double error = cfg_.setpoint - measurement;

    // Derivative on the measurement (sign-flipped), filtered.
    double raw_derivative = 0.0;
    if (primed_)
        raw_derivative = -(measurement - prev_measurement_) / cfg_.dt;
    derivative_ += cfg_.derivative_filter
        * (raw_derivative - derivative_);
    prev_measurement_ = measurement;
    primed_ = true;

    const double p_term = cfg_.kp * error;
    const double d_term = cfg_.kd * derivative_;

    // Candidate integral increment.
    const double increment = cfg_.ki * error * cfg_.dt;
    double integral_next = integral_ + increment;
    if (cfg_.anti_windup == AntiWindup::Conditional) {
        // The integral term alone must not exceed the actuator range
        // (the paper's "preventing the integral from taking on a
        // [saturating] value"). AntiWindup::None leaves the integrator
        // unbounded, exhibiting the classic windup the paper warns of.
        integral_next =
            std::clamp(integral_next, cfg_.out_min, cfg_.out_max);
    }

    double unclamped = p_term + integral_next + d_term;

    if (cfg_.anti_windup == AntiWindup::Conditional) {
        // Freeze the integrator when the output is saturated and the
        // increment pushes further into saturation.
        const bool sat_high =
            unclamped > cfg_.out_max && increment > 0.0;
        const bool sat_low =
            unclamped < cfg_.out_min && increment < 0.0;
        if (sat_high || sat_low) {
            integral_next = integral_;
            unclamped = p_term + integral_next + d_term;
        }
    }

    integral_ = integral_next;
    output_ = std::clamp(unclamped, cfg_.out_min, cfg_.out_max);
    THERMCTL_INVARIANT(check::verifyPidContract(
        output_, integral_, cfg_.out_min, cfg_.out_max,
        cfg_.anti_windup == AntiWindup::Conditional,
        "PidController::update"));
    return output_;
}

} // namespace thermctl
