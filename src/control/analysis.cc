#include "control/analysis.hh"

#include <algorithm>
#include <cmath>
#include <complex>
#include <deque>
#include <limits>

#include "common/logging.hh"

namespace thermctl
{

namespace
{

/** Controller frequency response C(j*omega). */
std::complex<double>
controllerResponse(const PidConfig &cfg, double omega)
{
    return {cfg.kp, cfg.kd * omega - cfg.ki / omega};
}

} // namespace

StepResponse
simulateClosedLoop(const PidConfig &cfg, const FopdtPlant &plant,
                   const ClosedLoopSpec &spec)
{
    if (cfg.setpoint == 0.0)
        fatal("simulateClosedLoop: needs a non-zero setpoint step");

    const double duration = spec.duration > 0.0
        ? spec.duration
        : 20.0 * (plant.tau + plant.dead_time) + 10.0 * cfg.dt;

    // Plant integrates at a finer step than the controller for accuracy.
    const int substeps = 8;
    const double dt_int = cfg.dt / substeps;

    // Input delay line realizing the dead time.
    const std::size_t delay_slots = static_cast<std::size_t>(
        std::llround(plant.dead_time / dt_int));
    std::deque<double> delay(delay_slots, 0.0);

    PidController controller(cfg);
    StepResponse resp;

    double y = 0.0;
    double u = 0.0;
    const double sp = cfg.setpoint;
    const double hi_band = sp + std::abs(sp) * spec.settling_band;
    const double lo_band = sp - std::abs(sp) * spec.settling_band;
    double last_outside = 0.0;
    double peak = std::numeric_limits<double>::lowest();

    const std::uint64_t ctrl_steps = static_cast<std::uint64_t>(
        std::ceil(duration / cfg.dt));
    resp.output.reserve(ctrl_steps);

    for (std::uint64_t k = 0; k < ctrl_steps; ++k) {
        u = controller.update(y) + spec.input_disturbance;
        for (int s = 0; s < substeps; ++s) {
            double u_eff = u;
            if (!delay.empty()) {
                delay.push_back(u);
                u_eff = delay.front();
                delay.pop_front();
            }
            y = plant.stepState(y, u_eff, dt_int);
        }
        resp.output.push_back(y);
        peak = std::max(peak, y);

        const double t = (k + 1) * cfg.dt;
        if (y > hi_band || y < lo_band)
            last_outside = t;
        if (std::abs(y) > 100.0 * std::abs(sp) + 100.0) {
            resp.diverged = true;
            break;
        }
    }

    resp.final_value = y;
    resp.steady_state_error = sp - y;
    resp.overshoot = sp != 0.0
        ? std::max(0.0, (peak - sp) / std::abs(sp))
        : 0.0;
    resp.settled = !resp.diverged && last_outside < duration - 2.0 * cfg.dt;
    resp.settling_time = resp.settled ? last_outside : duration;
    return resp;
}

double
worstCaseOvershoot(const PidConfig &cfg, const FopdtPlant &plant)
{
    // (a) Setpoint-approach overshoot, as a fraction of the step.
    PidConfig step_cfg = cfg;
    step_cfg.setpoint = 1.0;
    const StepResponse step = simulateClosedLoop(step_cfg, plant);
    double worst = step.diverged ? 1e6 : step.overshoot;

    // (b) Reaction-delay bound: the hottest surge the loop can suffer
    // is the plant rising at its maximum slew (a full-authority power
    // step, initial slope K/tau) during the interval the controller is
    // blind — the loop dead time plus one sampling period. Expressed as
    // a fraction of the command authority K this is (L + dt) / tau.
    const double blind = plant.dead_time + cfg.dt;
    worst = std::max(worst, blind / std::max(plant.tau, 1e-12));
    return worst;
}

double
disturbanceResidual(const PidConfig &cfg, const FopdtPlant &plant)
{
    const double w_d = 1.0 / std::max(plant.tau, 1e-12);
    const std::complex<double> loop =
        controllerResponse(cfg, w_d) * plant.response(w_d);
    const double sensitivity = 1.0 / std::abs(1.0 + loop);
    return 0.5 * plant.gain * sensitivity;
}

Celsius
chooseSafeSetpoint(const PidConfig &cfg, const FopdtPlant &plant,
                   Celsius t_base, Celsius t_emergency, Celsius margin,
                   Celsius approach_step)
{
    if (t_emergency <= t_base)
        fatal("chooseSafeSetpoint: emergency level must exceed base");

    // Setpoint-approach overshoot over the visible step.
    PidConfig step_cfg = cfg;
    step_cfg.setpoint = 1.0;
    const StepResponse step = simulateClosedLoop(step_cfg, plant);
    const double approach_peak =
        (step.diverged ? 1e6 : step.overshoot) * approach_step;

    // Maximum slew through the blind interval (dead time + one sample).
    const double blind_peak = plant.gain
        * (plant.dead_time + cfg.dt) / std::max(plant.tau, 1e-12);

    // Finite-loop-gain residual of workload power disturbances.
    const double residual_peak = disturbanceResidual(cfg, plant);

    const double excursion =
        std::max({approach_peak, blind_peak, residual_peak});
    const Celsius sp = t_emergency - margin - excursion;
    return std::max(sp, t_base);
}

double
phaseMarginDeg(const PidConfig &cfg, const FopdtPlant &plant)
{
    // Find the gain crossover |C P| = 1 by log sweep + bisection.
    auto loop_mag = [&](double w) {
        return std::abs(controllerResponse(cfg, w) * plant.response(w));
    };
    double lo = 1e-4 / std::max(plant.tau, 1e-9);
    double hi = 1e4 / std::max(plant.dead_time > 0 ? plant.dead_time
                                                   : plant.tau,
                               1e-9);
    if (loop_mag(lo) < 1.0)
        return 180.0; // loop gain below unity everywhere sampled
    for (int i = 0; i < 200; ++i) {
        const double mid = std::sqrt(lo * hi);
        if (loop_mag(mid) > 1.0)
            lo = mid;
        else
            hi = mid;
    }
    const double wc = std::sqrt(lo * hi);
    const double phase = std::arg(controllerResponse(cfg, wc)
                                  * plant.response(wc));
    return (phase + M_PI) * 180.0 / M_PI;
}

double
gainMarginDb(const PidConfig &cfg, const FopdtPlant &plant)
{
    // Find the phase crossover arg(CP) = -180 deg by sweep.
    auto loop_phase = [&](double w) {
        return std::arg(controllerResponse(cfg, w) * plant.response(w));
    };
    auto loop_mag = [&](double w) {
        return std::abs(controllerResponse(cfg, w) * plant.response(w));
    };
    const double w_start = 1e-4 / std::max(plant.tau, 1e-9);
    const double w_end = 1e4
        / std::max(plant.dead_time > 0 ? plant.dead_time : plant.tau,
                   1e-9);
    double prev_w = w_start;
    double prev_phase = loop_phase(w_start);
    for (double w = w_start; w <= w_end; w *= 1.02) {
        const double ph = loop_phase(w);
        if (prev_phase > -M_PI && ph <= -M_PI) {
            // Bisect the crossing.
            double lo = prev_w, hi = w;
            for (int i = 0; i < 100; ++i) {
                const double mid = std::sqrt(lo * hi);
                if (loop_phase(mid) > -M_PI)
                    lo = mid;
                else
                    hi = mid;
            }
            const double mag = loop_mag(std::sqrt(lo * hi));
            return -20.0 * std::log10(std::max(mag, 1e-300));
        }
        prev_w = w;
        prev_phase = ph;
    }
    return 100.0; // no phase crossover within the sweep: effectively inf
}

} // namespace thermctl
