/**
 * @file
 * Closed-loop analysis utilities: discrete simulation of a PID controller
 * against an FOPDT plant, step-response metrics (overshoot, settling
 * time, steady-state error), and a stability probe. Used by the test
 * suite to verify tunings and by the controller-design example/bench.
 */

#ifndef THERMCTL_CONTROL_ANALYSIS_HH
#define THERMCTL_CONTROL_ANALYSIS_HH

#include <vector>

#include "common/types.hh"
#include "control/pid.hh"
#include "control/plant.hh"

namespace thermctl
{

/** Step-response metrics of a closed-loop simulation. */
struct StepResponse
{
    std::vector<double> output;  ///< plant output trace
    double final_value = 0.0;
    double overshoot = 0.0;      ///< fraction of the step beyond target
    double settling_time = 0.0;  ///< seconds to stay within the band
    double steady_state_error = 0.0;
    bool settled = false;
    bool diverged = false;       ///< output exceeded sanity bounds
};

/** Parameters of a closed-loop step simulation. */
struct ClosedLoopSpec
{
    double duration = 0.0;        ///< total simulated time (s); 0 = auto
    double settling_band = 0.02;  ///< +-2 percent settling criterion
    /** Disturbance added to the plant input (actuator offset). */
    double input_disturbance = 0.0;
};

/**
 * Simulate the closed loop: the controller drives the plant toward the
 * PidConfig setpoint from a zero initial state.
 *
 * The plant's dead time is realized as an input delay line; the
 * controller runs every cfg.dt while the plant integrates at a finer
 * internal step for accuracy.
 */
StepResponse simulateClosedLoop(const PidConfig &cfg,
                                const FopdtPlant &plant,
                                const ClosedLoopSpec &spec = {});

/** Gain margin of loop C(s)P(s) estimated by frequency sweep (dB). */
double gainMarginDb(const PidConfig &cfg, const FopdtPlant &plant);

/** Phase margin of loop C(s)P(s) estimated by frequency sweep (deg). */
double phaseMarginDeg(const PidConfig &cfg, const FopdtPlant &plant);

/**
 * Worst-case regulation overshoot of the closed loop, as a fraction of
 * the commanded step. Evaluated by simulating the loop against both a
 * setpoint step and a full-scale input (power) disturbance and taking
 * the larger overshoot — the quantity that determines how close to the
 * emergency threshold the setpoint may sit.
 */
double worstCaseOvershoot(const PidConfig &cfg, const FopdtPlant &plant);

/**
 * Residual temperature excursion from workload power disturbances, in
 * output units: half the command authority (the workload swinging over
 * half its range) attenuated by the loop's sensitivity function
 * |1 / (1 + C P)| evaluated at the thermal-time-scale frequency 1/tau.
 * A pure P controller's finite loop gain leaves a substantial residual;
 * integral action drives it toward zero.
 */
double disturbanceResidual(const PidConfig &cfg, const FopdtPlant &plant);

/**
 * The paper's Section 2.2 design rule, made concrete: "an analysis of
 * the maximum overshoot can be used to choose a setpoint that, in
 * conjunction with the appropriate controller, is as high as possible
 * without risking an actual emergency."
 *
 * The worst excursion above the setpoint is bounded by the largest of:
 * the setpoint-approach overshoot (scaled by the approach step the
 * controller actually sees — the sensor range, for the paper's clamped
 * DTM sensors), the maximum plant slew through the loop's blind
 * interval, and the disturbance residual of the finite loop gain.
 *
 * @param cfg tuned controller (setpoint field ignored)
 * @param plant the thermal plant
 * @param t_base quasi-static base temperature
 * @param t_emergency the hard limit
 * @param margin extra guard band in degrees C
 * @param approach_step the setpoint step the controller can see
 *        (degrees C); for DTM this is the sensor range above the
 *        trigger floor
 */
Celsius chooseSafeSetpoint(const PidConfig &cfg, const FopdtPlant &plant,
                           Celsius t_base, Celsius t_emergency,
                           Celsius margin = 0.05,
                           Celsius approach_step = 0.2);

} // namespace thermctl

#endif // THERMCTL_CONTROL_ANALYSIS_HH
