/**
 * @file
 * Per-core thermal controllers for the multicore engine (DESIGN.md §15).
 *
 * Each core runs one controller that observes the core's hottest
 * hot-spot block every sample and outputs a continuous duty in [0, 1],
 * which the engine quantizes onto the per-core DVFS ladder (and clamps
 * under the chip budget).
 *
 * Two families:
 *
 *  - FixedPidCoreController: the paper's loop-shaped PID, reused
 *    unchanged. Its gains are tuned once against a nominal FOPDT plant;
 *    when the true plant gain differs (different floorplan corner,
 *    neighbor heating, leakage feedback) the fixed loop over- or
 *    under-reacts.
 *
 *  - AdjustableIntegralController (Rao et al., "Temperature Regulation
 *    in Multicore Processors Using Adjustable-Gain Integral
 *    Controllers"): an integral law u[k+1] = clamp(u[k] + g[k] e[k])
 *    whose gain is re-derived every sample from an online estimate of
 *    the plant sensitivity b = dT/du, so the loop gain g*b stays at the
 *    designed value even when the plant drifts 4x from nominal.
 */

#ifndef THERMCTL_MULTICORE_CORE_CONTROLLER_HH
#define THERMCTL_MULTICORE_CORE_CONTROLLER_HH

#include <memory>

#include "common/types.hh"
#include "control/pid.hh"

namespace thermctl::multicore
{

/** One core's thermal controller: hottest block in, duty out. */
class CoreController
{
  public:
    virtual ~CoreController() = default;

    /**
     * One control sample.
     * @param hottest the core's hottest hot-spot temperature
     * @return commanded duty in [0, 1] (1 = nominal frequency)
     */
    virtual double update(Celsius hottest) = 0;

    /** @return printable controller name. */
    virtual const char *name() const = 0;
};

/** The paper's fixed-gain PID driving the DVFS ladder. */
class FixedPidCoreController : public CoreController
{
  public:
    explicit FixedPidCoreController(const PidConfig &cfg);

    double update(Celsius hottest) override;
    const char *name() const override { return "percore-PID"; }

  private:
    PidController pid_;
};

/** Adjustable-gain integral controller configuration. */
struct AdjustableIntegralConfig
{
    /** Temperature setpoint (defaults follow DtmPolicySettings). */
    Celsius setpoint = 111.6;

    /**
     * Designed per-sample loop gain: the fraction of the current error
     * the loop should remove each sample (g[k] = loop_gain / b_hat).
     * 0.5 halves the error every sample when the estimate is exact —
     * fast but monotone (no overshoot) for a first-order plant.
     */
    double loop_gain = 0.5;

    /** Initial plant-sensitivity estimate b_hat, degrees per unit duty. */
    double initial_sensitivity = 10.0;

    /** EWMA weight of a fresh sensitivity observation. */
    double sensitivity_filter = 0.25;

    /** Clamp band for b_hat (keeps g finite under tiny observations). */
    double sensitivity_min = 0.5;
    double sensitivity_max = 500.0;

    /** Actuator range. */
    double out_min = 0.0;
    double out_max = 1.0;
};

/**
 * Rao-style adjustable-gain integral controller.
 *
 * Law: u[k+1] = clamp(u[k] + g[k] (setpoint - T[k])) with
 * g[k] = loop_gain / b_hat[k]. The sensitivity estimate updates from
 * the observed response: whenever the previously applied duty change
 * was non-negligible, b_obs = dT/du feeds an EWMA (only plausible
 * positive observations are accepted; the plant heats when duty rises).
 */
class AdjustableIntegralController : public CoreController
{
  public:
    explicit AdjustableIntegralController(
        const AdjustableIntegralConfig &cfg);

    double update(Celsius hottest) override;
    const char *name() const override { return "adj-integral"; }

    /** Current plant-sensitivity estimate b_hat (tests). */
    double sensitivity() const { return b_hat_; }

    const AdjustableIntegralConfig &config() const { return cfg_; }

  private:
    /** Current adapted gain g[k]. */
    double gain() const;

    AdjustableIntegralConfig cfg_;
    double u_;      ///< current output
    double b_hat_;  ///< plant-sensitivity estimate, K per unit duty
    double prev_temp_ = 0.0;
    double prev_u_ = 0.0;
    bool have_prev_ = false;
};

} // namespace thermctl::multicore

#endif // THERMCTL_MULTICORE_CORE_CONTROLLER_HH
